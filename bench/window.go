package main

import (
	"sort"
	"time"

	"repro/bench/calib"
)

// What the bounded figures are made of.
//
// The reference box is a small guest on a shared host, and the wall clock
// of identical code moves by a third between one run and the next. Two
// things move it. The neighbours slow the core down while the code runs —
// shared execution ports and caches: that lengthens every stretch of work
// alike, by the factor bench/calib reads off its calibration units, so times
// are multiplied by that host speed and read in reference seconds: seconds
// of the reference box when its neighbours are quiet. And the host takes
// the CPU away, or stalls it on memory, for milliseconds at a time, in
// bursts that can add up to a third of a run: a serving workload is
// therefore cut into blocks of about a millisecond, and its rate is that of
// the median block — what the program does in a millisecond the host leaves
// alone. What the median block leaves out (a collection every 100 ms, a
// stall) is in the wall-clock rate printed next to it. A simulated day or
// a set-up is one long stretch out of which stalls cannot be cut; its host
// speed is by the mean calibration unit, which the same stalls lengthen.

// The measured window of a serving workload is cut into slices of a few
// hundred milliseconds. Each slice yields the rate of its median block and
// its median latency, in reference time by the host speed of that slice,
// and the run reports the median slice.

// sliceLog collects one stream's completed work and latencies per slice.
type sliceLog struct {
	start time.Time
	width time.Duration
	// count is the work completed in each slice, wall the wall-clock time
	// it was given, rate the work per wall-clock second of each block.
	count []int64
	wall  []time.Duration
	rate  [][]float64
	lat   [][]float64
}

func (s *sliceLog) at(now time.Time) int {
	i := int(now.Sub(s.start) / s.width)
	for len(s.count) <= i {
		s.count = append(s.count, 0)
		s.wall = append(s.wall, 0)
		s.rate = append(s.rate, nil)
		s.lat = append(s.lat, nil)
	}
	return i
}

// add counts a block: n units of work finished at now, after wall of
// wall-clock time.
func (s *sliceLog) add(now time.Time, n int64, wall time.Duration) {
	i := s.at(now)
	s.count[i] += n
	s.wall[i] += wall
	s.rate[i] = append(s.rate[i], float64(n)/wall.Seconds())
}

// observe records one latency, in nanoseconds, finished at now.
func (s *sliceLog) observe(now time.Time, ns float64) {
	i := s.at(now)
	s.lat[i] = append(s.lat[i], ns)
}

// sliceFigure is what one slice measured.
type sliceFigure struct {
	index int
	// speed is the host speed the meter saw during the slice.
	speed float64
	// wallRate is work per wall-clock second over the whole slice, refRate
	// work per reference second in its median block.
	wallRate, refRate float64
	// latNs is the slice's median latency on the wall clock, refLatNs the
	// same in reference time. Both are 0 for a slice without observations.
	latNs, refLatNs float64
}

// figures returns the first full slices. A slice in which no calibration
// unit started borrows the speed of its surroundings (Meter.Speed widens).
func (s *sliceLog) figures(full int, m *calib.Meter) []sliceFigure {
	out := make([]sliceFigure, 0, full)
	for i := 0; i < full && i < len(s.count); i++ {
		from := s.start.Add(time.Duration(i) * s.width)
		f := sliceFigure{index: i, speed: m.Speed(from, from.Add(s.width)), latNs: medianFloat(s.lat[i])}
		if s.wall[i] > 0 {
			f.wallRate = float64(s.count[i]) / s.wall[i].Seconds()
		}
		if f.speed > 0 {
			f.refRate = medianFloat(s.rate[i]) / f.speed
		}
		f.refLatNs = f.latNs * f.speed
		out = append(out, f)
	}
	return out
}

// medianOf is the median of pick over the figures that keep accepts (nil:
// all), skipping zeros.
func medianOf(figs []sliceFigure, keep func(i int) bool, pick func(*sliceFigure) float64) float64 {
	var v []float64
	for i := range figs {
		if keep != nil && !keep(figs[i].index) {
			continue
		}
		if x := pick(&figs[i]); x > 0 {
			v = append(v, x)
		}
	}
	return medianFloat(v)
}

func refRate(f *sliceFigure) float64   { return f.refRate }
func wallRate(f *sliceFigure) float64  { return f.wallRate }
func refLat(f *sliceFigure) float64    { return f.refLatNs }
func hostSpeed(f *sliceFigure) float64 { return f.speed }

// tracedSlice says whether window slice i of a traced run records spans.
// Half the slices do, picked by a hash of the index rather than its parity
// so that nothing periodic in the workload lines up with the choice.
func tracedSlice(i int) bool {
	x := uint64(i+1) * 0x9e3779b97f4a7c15
	return (x>>40)&1 == 0
}

// tracedOverUntraced is the cost of tracing as a traced run sees it: the
// median rate of the slices that recorded spans over that of the slices
// that did not (0 when the window is too short to hold both kinds).
func tracedOverUntraced(figs []sliceFigure) float64 {
	on := medianOf(figs, tracedSlice, refRate)
	off := medianOf(figs, func(i int) bool { return !tracedSlice(i) }, refRate)
	if on == 0 || off == 0 {
		return 0
	}
	return on / off
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	ns := make([]float64, len(ds))
	for i, d := range ds {
		ns[i] = float64(d)
	}
	return time.Duration(medianFloat(ns))
}

// setupUnits is how many calibration units run before and after a timed
// set-up.
const setupUnits = 16

// timedSetup runs one set-up between two groups of calibration units and
// returns how long it took on the wall clock and in reference time. A
// set-up is one opaque stretch, like a simulated day, so the speed is by
// the mean unit.
func timedSetup(m *calib.Meter, build func() error) (wall, ref time.Duration, err error) {
	before := time.Now()
	m.SampleN(setupUnits)
	t := time.Now()
	err = build()
	wall = time.Since(t)
	m.SampleN(setupUnits)
	return wall, time.Duration(float64(wall) * m.MeanSpeed(before, time.Now())), err
}
