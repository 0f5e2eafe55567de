package calib

import (
	"math"
	"sort"
	"testing"
	"time"
)

// A host running the unit in RefNs is at speed 1; one taking twice as long
// is at half speed.
func TestSpeedOf(t *testing.T) {
	if got := SpeedOf(10, 10*RefNs); math.Abs(got-1) > 1e-9 {
		t.Errorf("SpeedOf(10 units in 10 RefNs) = %v, want 1", got)
	}
	if got := SpeedOf(4, 8*RefNs); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("SpeedOf(4 units in 8 RefNs) = %v, want 0.5", got)
	}
	if SpeedOf(0, time.Second) != 0 || SpeedOf(3, 0) != 0 {
		t.Error("SpeedOf without units or time must be 0")
	}
}

// Speed reads only the units that started inside the interval, and widens
// an interval that holds none rather than returning nothing.
func TestSpeedPicksTheInterval(t *testing.T) {
	m := &Meter{epoch: time.Now()}
	at := func(ms int) time.Time { return m.epoch.Add(time.Duration(ms) * time.Millisecond) }
	if m.Speed(at(0), at(10)) != 0 {
		t.Fatal("a meter that never sampled has no speed")
	}
	// Units at 1..5 ms at full speed, at 11..15 ms at half speed.
	for ms := 1; ms <= 5; ms++ {
		m.samples = append(m.samples, sample{time.Duration(ms) * time.Millisecond, RefNs})
	}
	for ms := 11; ms <= 15; ms++ {
		m.samples = append(m.samples, sample{time.Duration(ms) * time.Millisecond, 2 * RefNs})
	}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 6, 1},
		{10, 16, 0.5},
		{0, 16, 0.5},  // ten units: the median is the sixth, a slow one
		{7, 8, 1},     // empty: widens to the nearest units, 5 ms first
		{20, 30, 0.5}, // after the last unit: widens backwards
	} {
		if got := m.Speed(at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Speed(%d ms, %d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

// One interrupted unit does not move the speed.
func TestSpeedIgnoresAnInterruption(t *testing.T) {
	m := &Meter{epoch: time.Now()}
	for ms := 1; ms <= 9; ms++ {
		took := time.Duration(RefNs)
		if ms == 5 {
			took = 11 * RefNs // a 1 ms time slice lost in the middle of it
		}
		m.samples = append(m.samples, sample{time.Duration(ms) * time.Millisecond, took})
	}
	if got := m.Speed(m.epoch, m.epoch.Add(10*time.Millisecond)); math.Abs(got-1) > 1e-9 {
		t.Errorf("Speed = %v, want 1", got)
	}
}

// The unit must be deterministic work: the same number of iterations over
// the same buffers whatever the state, so two metres agree.
func TestUnitsAreRecordedInOrder(t *testing.T) {
	m := New()
	m.SampleN(50)
	if m.Len() != 50 {
		t.Fatalf("Len = %d after 50 units", m.Len())
	}
	took := make([]time.Duration, 0, 50)
	for i, s := range m.samples {
		if i > 0 && s.at < m.samples[i-1].at {
			t.Fatalf("unit %d started before unit %d", i, i-1)
		}
		if s.took <= 0 {
			t.Fatalf("unit %d took %v", i, s.took)
		}
		took = append(took, s.took)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	t.Logf("unit: min %v p10 %v p50 %v p90 %v (RefNs %v); host speed %.3f",
		took[0], took[5], took[25], took[45], time.Duration(RefNs), m.Speed(m.epoch, time.Now()))
}

// MeanSpeed counts the interruption that Speed leaves out.
func TestMeanSpeedCountsAnInterruption(t *testing.T) {
	m := &Meter{epoch: time.Now()}
	for ms := 1; ms <= 10; ms++ {
		took := time.Duration(RefNs)
		if ms == 5 {
			took = 11 * RefNs
		}
		m.samples = append(m.samples, sample{time.Duration(ms) * time.Millisecond, took})
	}
	from, to := m.epoch, m.epoch.Add(11*time.Millisecond)
	if got := m.MeanSpeed(from, to); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MeanSpeed = %v, want 0.5 (ten units in twenty unit times)", got)
	}
	if got := m.Speed(from, to); math.Abs(got-1) > 1e-9 {
		t.Errorf("Speed = %v, want 1", got)
	}
	if (&Meter{epoch: time.Now()}).MeanSpeed(from, to) != 0 {
		t.Error("a meter that never sampled has no mean speed")
	}
}
