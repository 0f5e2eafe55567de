package fleet

import (
	"reflect"
	"testing"
)

// kvTestConfig is a small defect-dense fleet.
func kvTestConfig() Config {
	cfg := testConfig()
	cfg.Machines = 120
	cfg.CoresPerMachine = 8
	cfg.DefectsPerMachine = 0.1
	return cfg
}

// kvTestRunner builds the kvTestConfig fleet at parallelism par and
// starts a kvdb workload of the given number of stores before its first
// Step.
func kvTestRunner(t *testing.T, par, stores int) *Runner {
	t.Helper()
	r, err := NewRunner(kvTestConfig(), WithParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fleet().StartKVLoad(KVDBConfig{Stores: stores, ReadsPerDay: 32, WritesPerDay: 2}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestKVDBPhaseDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) []DayStats { return kvTestRunner(t, par, 3).Run(8) }
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("kvdb-enabled run diverges across parallelism:\n serial   %+v\n parallel %+v",
			serial, parallel)
	}
	var reads int
	for _, d := range serial {
		reads += d.KVReads
	}
	if want := 3 * 32 * 8; reads != want {
		t.Fatalf("KVReads = %d, want %d (stores x reads x days)", reads, want)
	}
}

func TestKVDBDisabledForksNothing(t *testing.T) {
	// The phase must be invisible until StartKVLoad: identical seeds
	// produce identical telemetry with every kv counter at zero.
	a := newTestRunner(t, kvTestConfig()).Run(5)
	b := newTestRunner(t, kvTestConfig()).Run(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("baseline run not reproducible")
	}
	for _, d := range a {
		if d.KVReads != 0 || d.KVRetries != 0 || d.KVRepairs != 0 ||
			d.KVDegraded != 0 || d.KVErrors != 0 {
			t.Fatalf("kv counters nonzero with the phase disabled: %+v", d)
		}
	}
}
