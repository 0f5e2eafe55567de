package fleet

// The kvdb day phase: a handful of replicated key-value stores served
// through kvdb.TolerantDB, with replicas deliberately placed on the
// fleet's defective cores. This is the application-level detection loop of
// §6 running *inside* the simulation: checksum failures and divergence
// during serving become suspect-report signals, the tracker concentrates
// them, quarantine isolates the core, and the store's health-aware replica
// selection reroutes subsequent reads — client-visible errors drop to zero
// while the defect is still physically present.
//
// The phase is off until StartKVLoad switches it on, and consumes no
// randomness while off, so existing experiment outputs are bit-identical.
// When on it runs serially (phase 3b), after the site merge and before
// noise, so its signals reach the tracker the same day and every stream
// it forks is ordered deterministically.

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvdb"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// KVDBConfig parameterizes the optional kvdb-workload day phase.
type KVDBConfig struct {
	// Stores is the number of simulated stores (at least 1).
	// Store k's first replica is served by defect site k (when one
	// exists), so the workload exercises real mercurial cores.
	Stores int `scn:"stores"`
	// Replicas per store (default 3).
	Replicas int `scn:"replicas"`
	// ReadsPerDay and WritesPerDay shape the daily workload per store
	// (defaults 64 and 4).
	ReadsPerDay  int `scn:"reads_per_day"`
	WritesPerDay int `scn:"writes_per_day"`
	// AvoidScore is the tracker suspect score at which a replica's core
	// is deprioritized before any quarantine decision (default 6).
	AvoidScore float64 `scn:"avoid_score"`
}

// Each store holds kvRows rows of kvValueBytes bytes; a read retries on
// other replicas as often as kvdb.NewTolerant allows by default.
const (
	kvRows       = 16
	kvValueBytes = 64
)

func (c KVDBConfig) withDefaults() KVDBConfig {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.ReadsPerDay <= 0 {
		c.ReadsPerDay = 64
	}
	if c.WritesPerDay <= 0 {
		c.WritesPerDay = 4
	}
	if c.AvoidScore <= 0 {
		c.AvoidScore = 6
	}
	return c
}

// kvSlot is one replica's binding to a fleet core.
type kvSlot struct {
	replica *kvdb.Replica
	// site is the defect site serving this replica, nil for replicas on
	// healthy cores.
	site *DefectSite
	// rebound is set once repaired silicon replaced the serving core.
	rebound bool
}

// kvStore is one simulated store and its workload state.
type kvStore struct {
	id    string
	tdb   *kvdb.TolerantDB
	slots []kvSlot
	keys  []string
	// last is the previous day's cumulative stats, for daily deltas.
	last kvdb.TolerantStats
}

// buildKVStores constructs the stores when StartKVLoad switches the phase
// on, so the master RNG is untouched otherwise.
func (f *Fleet) buildKVStores() {
	kcfg := f.kvCfg
	krng := f.rng.ForkString("kvdb")
	for s := 0; s < kcfg.Stores; s++ {
		ks := &kvStore{id: fmt.Sprintf("kv%03d", s)}
		var replicas []*kvdb.Replica
		for r := 0; r < kcfg.Replicas; r++ {
			name := fmt.Sprintf("%s-r%d", ks.id, r)
			slot := kvSlot{}
			if r == 0 && s < len(f.defects) {
				// The interesting replica: served by a real mercurial core.
				site := f.defects[s]
				slot.site = site
				slot.replica = kvdb.NewReplica(name, engine.New(site.Site)).
					Locate(site.Machine, site.Core)
			} else {
				machine, core := f.kvHealthySlot(s, r)
				hc := fault.NewCore(name, krng.ForkString("healthy:"+name))
				slot.replica = kvdb.NewReplica(name, engine.New(hc)).
					Locate(machine, core)
			}
			ks.slots = append(ks.slots, slot)
			replicas = append(replicas, slot.replica)
		}
		db, err := kvdb.New(replicas...)
		if err != nil {
			panic(err)
		}
		ks.tdb = kvdb.NewTolerant(db, kvdb.TolerantConfig{
			// Signals are buffered and merged at the end of the phase.
			Sink:    f.bufferSignal,
			Health:  f.kvHealth,
			Metrics: f.obs,
			Now:     f.today,
		})
		// Seed the rows. Defective replicas may store corrupt bytes right
		// away — exactly the latent state tolerant reads must survive.
		seed := krng.ForkString("rows:" + ks.id)
		for i := 0; i < kvRows; i++ {
			key := fmt.Sprintf("row%04d", i)
			val := make([]byte, kvValueBytes)
			seed.Bytes(val)
			ks.tdb.Put(key, val)
			ks.keys = append(ks.keys, key)
		}
		f.kvStores = append(f.kvStores, ks)
	}
}

// kvHealthySlot deterministically picks a (machine, core) home for a
// healthy replica, skipping machines that carry any defective silicon so
// attribution can never finger a genuinely defective core by accident.
func (f *Fleet) kvHealthySlot(store, replica int) (string, int) {
	idx := (store*31 + replica*7) % len(f.machines)
	for tries := 0; tries < len(f.machines); tries++ {
		m := f.machines[(idx+tries)%len(f.machines)]
		if len(m.Defective) == 0 {
			return m.ID, replica % f.cfg.CoresPerMachine
		}
	}
	// Every machine defective (tiny test fleets): fall back to the pick.
	return f.machines[idx].ID, replica % f.cfg.CoresPerMachine
}

// kvHealth is the store's HealthFunc: a replica is deprioritized when its
// core is out of service or still holds an isolation record, or when the
// tracker's current nominations score it above the avoid threshold
// (cached per day in kvAvoid). Only ever called from the serial kvdb
// phase.
func (f *Fleet) kvHealth(machine string, core int) bool {
	if machine == "" || core < 0 || core >= f.cfg.CoresPerMachine || machine[0] != 'm' {
		return false
	}
	if f.machineByID(machine).outOfService(core) {
		return true
	}
	ref := sched.CoreRef{Machine: machine, Core: core}
	if f.manager.Isolated(ref) {
		return true
	}
	return f.kvAvoid[ref]
}

// runKVDB is phase 3b: the day's store workload. Serial — every fork is
// ordered, every signal lands in the batch buffer in store order.
func (f *Fleet) runKVDB(dayRNG *xrand.RNG, st *DayStats) {
	kcfg := f.kvCfg

	// Refresh the pre-quarantine avoidance cache from today's nominations.
	f.kvAvoid = map[sched.CoreRef]bool{}
	for _, s := range f.server.Suspects() {
		if s.Core >= 0 && s.Score() >= kcfg.AvoidScore {
			f.kvAvoid[sched.CoreRef{Machine: s.Machine, Core: s.Core}] = true
		}
	}

	for _, ks := range f.kvStores {
		rng := dayRNG.ForkString("kvdb:" + ks.id)
		f.kvRebindRepaired(ks)
		for w := 0; w < kcfg.WritesPerDay; w++ {
			key := ks.keys[rng.Intn(len(ks.keys))]
			val := make([]byte, kvValueBytes)
			rng.Bytes(val)
			ks.tdb.Put(key, val)
		}
		for r := 0; r < kcfg.ReadsPerDay; r++ {
			key := ks.keys[rng.Intn(len(ks.keys))]
			_, _ = ks.tdb.Get(key)
		}
		cur := ks.tdb.Stats()
		st.KVReads += cur.Reads - ks.last.Reads
		st.KVRetries += cur.Retries - ks.last.Retries
		st.KVRepairs += cur.Repairs - ks.last.Repairs
		st.KVDegraded += cur.DegradedServes - ks.last.DegradedServes
		st.KVErrors += cur.Errors - ks.last.Errors
		ks.last = cur
	}
	f.signals = f.merge(f.signals, &st.AutoReports)
}

// kvRebindRepaired moves replicas off repaired defect sites onto fresh
// healthy silicon (the RMA loop replaced the core; the replica's stored
// rows — including any corrupt ones — survive and heal via read repair).
func (f *Fleet) kvRebindRepaired(ks *kvStore) {
	for i := range ks.slots {
		slot := &ks.slots[i]
		if slot.site == nil || slot.rebound || !slot.site.Repaired {
			continue
		}
		name := slot.replica.ID + "-repl"
		hc := fault.NewCore(name, f.rng.ForkString("kv-repair:"+name))
		slot.replica.Engine = engine.New(hc)
		slot.rebound = true
	}
}
