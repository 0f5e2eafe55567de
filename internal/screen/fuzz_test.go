package screen

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// event is a CorruptionEvent with its defect named by ID, so the events of
// twin cores compare by value.
type event struct {
	defect string
	op     fault.OpClass
	seq    uint64
}

// fastPathTwin builds a core holding d, plus a zero-rate defect on every
// other unit when padded, that records its corruption events.
func fastPathTwin(d fault.Defect, seed uint64, age simtime.Time, padded bool) (*fault.Core, *[]event) {
	defects := []fault.Defect{d}
	if padded {
		for u := fault.UnitALU; u <= fault.UnitAtomic; u++ {
			if u != d.Unit {
				defects = append(defects, fault.Defect{ID: "pad-" + u.String(), Unit: u})
			}
		}
	}
	c := fault.NewCore("twin", xrand.New(seed), defects...)
	c.Age = age
	events := &[]event{}
	c.OnCorrupt = func(e fault.CorruptionEvent) {
		*events = append(*events, event{e.Defect.ID, e.Op, e.Seq})
	}
	return c, events
}

// FuzzFastPaths is the differential oracle for every native path a screen
// can take: the workload-level gates in internal/corpus, the bulk ops in
// internal/engine and the checksums in internal/ecc. It screens twin cores
// that share an ID and a seed. One holds a drawn catalog defect, boosted
// so it fires; the other also holds a zero-rate defect on every other
// unit. The padding arms every gate, so the second core takes every engine
// loop, yet it never draws or fires. Report, op and corruption counters,
// the corruption events with their Seq, and the next 16 draws of the
// screen's stream must all agree.
func FuzzFastPaths(f *testing.F) {
	for class := range fault.Catalog {
		for _, stop := range []bool{true, false} {
			f.Add(uint8(class), uint16(0), stop, uint64(class), uint64(100+class))
			f.Add(uint8(class), uint16(900), stop, uint64(50+class), uint64(200+class))
		}
	}
	f.Fuzz(func(t *testing.T, class uint8, ageDays uint16, stop bool, defectSeed, screenSeed uint64) {
		spec := fault.Catalog[int(class)%len(fault.Catalog)]
		d := spec.Sample("drawn", xrand.New(defectSeed))
		// Boosted and past onset, so that the drawn defect fires within
		// the budget on every class, the atomic unit's few ops included.
		d.BaseRate = max(d.BaseRate*1e4, 1e-3)
		age := d.Onset + simtime.Time(ageDays)*simtime.Day
		cfg := NewConfig(WithPasses(2), WithSweep(2, 1, 1), WithMaxOps(300_000), WithStopOnDetect(stop))

		fast, fastEvents := fastPathTwin(d, defectSeed, age, false)
		ref, refEvents := fastPathTwin(d, defectSeed, age, true)
		fastRNG, refRNG := xrand.New(screenSeed), xrand.New(screenSeed)
		got, want := Screen(fast, cfg, fastRNG), Screen(ref, cfg, refRNG)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: report %+v, engine loops %+v", spec.Name, got, want)
		}
		if fast.OpCount != ref.OpCount || fast.CorruptCount != ref.CorruptCount {
			t.Fatalf("%s: ops %v corrupt %v, engine loops ops %v corrupt %v",
				spec.Name, fast.OpCount, fast.CorruptCount, ref.OpCount, ref.CorruptCount)
		}
		if !reflect.DeepEqual(*fastEvents, *refEvents) {
			t.Fatalf("%s: corruption events %v, engine loops %v", spec.Name, *fastEvents, *refEvents)
		}
		for i := 0; i < 16; i++ {
			if a, b := fastRNG.Uint64(), refRNG.Uint64(); a != b {
				t.Fatalf("%s: screen stream draw %d after the screen: %#x, engine loops %#x", spec.Name, i, a, b)
			}
		}
		if fast.TotalOps() == 0 {
			t.Fatalf("%s: no ops counted", spec.Name)
		}
	})
}
