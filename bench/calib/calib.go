// Package calib measures how fast the host is running right now.
//
// The reference box is a two-vCPU guest on a shared host. Identical code
// runs at speeds that differ by a third from one ten-second stretch to the
// next, depending on what the neighbours do to the shared core, its caches
// and the hypervisor's scheduler: a single closed-loop client doing
// identical work read 530, 545, 741 and 650 µs per block in four
// consecutive 40 s runs. No statistic taken inside a run removes a slowdown
// that outlasts the run, so the harness measures the host alongside the
// program: a fixed calibration unit — integer hashing in L1, random 64-byte
// copies out of a megabyte, map lookups with a checksum; the instruction
// mix of the code under test, allocation-free — is run every millisecond
// or so between blocks of the workload, and a workload's wall-clock figure
// is restated in reference seconds: seconds of the reference box when its
// neighbours are quiet. Over the same four runs the restated figure read
// 2.55, 2.61, 2.59 and 2.60 units per block.
//
// The host also interrupts and stalls the guest for milliseconds at a time.
// Speed, by the median unit, leaves those out and goes with work that is
// itself taken by the median of short blocks; MeanSpeed, by the mean unit,
// includes them and goes with work that is one long stretch.
//
// The unit is part of the benchmark and must not change: a change to it
// rescales every bounded figure.
package calib

import (
	"hash/crc32"
	"sort"
	"strconv"
	"sync"
	"time"
)

// RefNs is how long one calibration unit takes on the reference box when
// its neighbours are quiet (the tenth percentile over quiet runs). It only
// sets the scale: a host at speed 1.0 runs the unit in RefNs.
const RefNs = 92_000

const (
	aluPasses = 15
	copyIters = 200
	mapIters  = 300
	mapKeys   = 4096
	copyBytes = 1 << 20
	lineBytes = 64
)

// sample is one calibration unit: when it started (since the meter's
// epoch) and how long it took.
type sample struct{ at, took time.Duration }

// Meter runs calibration units and remembers them. It is safe for
// concurrent use; units run one at a time.
type Meter struct {
	mu      sync.Mutex
	epoch   time.Time
	samples []sample

	l1   []byte
	big  []byte
	keys []string
	rows map[string][]byte
	x    uint64
	sink uint64
}

// New returns a meter with its buffers touched, so the first unit does not
// pay for page faults.
func New() *Meter {
	m := &Meter{epoch: time.Now(), l1: make([]byte, 4096), big: make([]byte, copyBytes),
		rows: make(map[string][]byte, mapKeys), x: 88172645463325252}
	for i := range m.big {
		m.big[i] = byte(i)
	}
	for i := 0; i < mapKeys; i++ {
		k := "calib" + strconv.Itoa(i)
		m.keys = append(m.keys, k)
		m.rows[k] = make([]byte, lineBytes)
	}
	for i := 0; i < 8; i++ {
		m.unit()
	}
	return m
}

// unit is the calibration kernel. Three parts of about equal length.
func (m *Meter) unit() {
	// Four independent FNV chains over a page: execution ports.
	var a, b, c, d uint64 = 1, 2, 3, 4
	for p := 0; p < aluPasses; p++ {
		buf := m.l1
		for i := 0; i+4 <= len(buf); i += 4 {
			a = (a ^ uint64(buf[i])) * 1099511628211
			b = (b ^ uint64(buf[i+1])) * 1099511628211
			c = (c ^ uint64(buf[i+2])) * 1099511628211
			d = (d ^ uint64(buf[i+3])) * 1099511628211
		}
	}
	// Random 64-byte copies out of a megabyte, hashed: the second-level
	// cache the neighbours share.
	x := m.x
	var line [lineBytes]byte
	h := a ^ b ^ c ^ d
	for i := 0; i < copyIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		off := int(x%(copyBytes/lineBytes)) * lineBytes
		copy(line[:], m.big[off:off+lineBytes])
		for _, v := range line {
			h = (h ^ uint64(v)) * 1099511628211
		}
		m.big[off] = byte(h)
	}
	// Map lookups by string key with a checksum of the row: what a store
	// does on a read.
	var sum uint32
	for i := 0; i < mapIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum ^= crc32.ChecksumIEEE(m.rows[m.keys[x%mapKeys]])
	}
	m.x = x
	m.sink += h + uint64(sum)
}

// Sample runs one unit on the calling goroutine and returns how long it
// took.
func (m *Meter) Sample() time.Duration {
	m.mu.Lock()
	t := time.Now()
	m.unit()
	took := time.Since(t)
	m.samples = append(m.samples, sample{t.Sub(m.epoch), took})
	m.mu.Unlock()
	return took
}

// SampleN runs n units back to back.
func (m *Meter) SampleN(n int) {
	for i := 0; i < n; i++ {
		m.Sample()
	}
}

// SpeedOf is the host speed that units taking total between them stand
// for: 1.0 is the quiet reference box, 0.7 a host running the same code
// 30 % slower. It is 0 when there is nothing to go by.
func SpeedOf(units int, total time.Duration) float64 {
	if units <= 0 || total <= 0 {
		return 0
	}
	return RefNs * float64(units) / float64(total)
}

// Speed is the host speed over the units that started in [from, to], by
// the median unit: how fast the host runs code while it runs it. A unit
// the host interrupted or stalled is an outlier and does not move it; it
// goes with work measured the same way, by the median of short blocks.
// When no unit started in the interval it is widened, doubling a margin
// that starts at a millisecond, until one did; the speed is 0 only for a
// meter that never sampled.
func (m *Meter) Speed(from, to time.Time) float64 {
	took := m.between(from, to)
	if len(took) == 0 {
		return 0
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return SpeedOf(1, took[len(took)/2])
}

// MeanSpeed is Speed by the mean unit: how much work the host lets through,
// interruptions and stalls included. It goes with work that is one long
// stretch — a simulated day, a set-up — out of which the host's stalls
// cannot be cut.
func (m *Meter) MeanSpeed(from, to time.Time) float64 {
	took := m.between(from, to)
	if len(took) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return SpeedOf(len(took), sum)
}

// between returns a copy of the durations of the units that started in
// [from, to], widened as Speed describes.
func (m *Meter) between(from, to time.Time) []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return nil
	}
	lo, hi := from.Sub(m.epoch), to.Sub(m.epoch)
	for margin := time.Duration(0); ; margin = max(2*margin, time.Millisecond) {
		i := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].at >= lo-margin })
		j := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].at > hi+margin })
		if j > i {
			took := make([]time.Duration, 0, j-i)
			for _, s := range m.samples[i:j] {
				took = append(took, s.took)
			}
			return took
		}
	}
}

// Len is how many units have run.
func (m *Meter) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.samples)
}
