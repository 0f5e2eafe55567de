package fleet

import (
	"reflect"
	"testing"
)

// kvTestConfig is a small defect-dense fleet with the kvdb workload on.
func kvTestConfig() Config {
	cfg := testConfig()
	cfg.Machines = 120
	cfg.CoresPerMachine = 8
	cfg.DefectsPerMachine = 0.1
	cfg.KVDB = KVDBConfig{Stores: 3, ReadsPerDay: 32, WritesPerDay: 2}
	return cfg
}

func TestKVDBPhaseDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) []DayStats {
		r, err := NewRunner(kvTestConfig(), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return r.Run(8)
	}
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
	// The phase must be invisible when off: identical seeds with and
	// without the KVDB field untouched produce identical telemetry.
	base := testConfig()
	base.Machines = 120
	base.CoresPerMachine = 8
	base.DefectsPerMachine = 0.1
	a := newTestRunner(t, base).Run(5)
	b := newTestRunner(t, base).Run(5)
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
