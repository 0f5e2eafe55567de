package fleet

// The taskrun day phase: batch tasks built from corpus workloads run
// under the taskrun.Supervisor's checkpoint/retry state machine, with
// each task's first placement pinned onto a live defect site so the §7
// runtime exercises real mercurial cores daily. Granule failures restore
// the last checkpoint, replay the recorded inputs on a different core,
// and — past the per-core divergence threshold — escalate core-attributed
// signals into the same report server the production and kvdb paths feed.
//
// Like the kvdb phase, it is off until StartTaskRun switches it on and
// consumes no randomness while off, so existing experiment outputs stay
// bit-identical. On, it runs serially (phase 3c, after
// kvdb, before noise): every RNG fork is ordered and every signal lands
// in the batch buffer in task order, preserving bit-identical output at
// any parallelism.

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/taskrun"
	"repro/internal/xrand"
)

// TaskRunConfig parameterizes the optional checkpoint/retry workload
// phase.
type TaskRunConfig struct {
	// Tasks is the number of supervised tasks run per day (at least 1).
	// Task k's first placement is pinned to defect site k mod
	// sites (when one is schedulable), so the runtime meets real
	// mercurial cores.
	Tasks int `scn:"tasks"`
	// GranulesPerTask is the checkpoint granularity (default 3); the
	// granules cycle through the screening corpus. Retries and the
	// per-core escalation floor are taskrun.Config's defaults.
	GranulesPerTask int `scn:"granules_per_task"`
}

func (c TaskRunConfig) withDefaults() TaskRunConfig {
	if c.GranulesPerTask <= 0 {
		c.GranulesPerTask = 3
	}
	return c
}

// buildTaskRun constructs the supervisor when StartTaskRun switches the
// phase on. It consumes no randomness.
func (f *Fleet) buildTaskRun() {
	sup, err := taskrun.NewSupervisor(f.cluster, f.coreFor, taskrun.Config{
		// Signals are buffered and merged at the end of the phase.
		Sink:    f.bufferSignal,
		Metrics: f.obs,
		Now:     f.today,
	})
	if err != nil {
		panic(err)
	}
	f.taskSup = sup
}

// taskrunStart picks the defect site task t pins its first placement to,
// cycling through live (unrepaired, undrained, unquarantined) sites. Nil
// when none remains schedulable — the task then places normally.
func (f *Fleet) taskrunStart(t int) *sched.CoreRef {
	n := len(f.defects)
	for probe := 0; probe < n; probe++ {
		site := f.defects[(t+probe)%n]
		if site.Repaired || f.machineByID(site.Machine).outOfService(site.Core) {
			continue
		}
		return &sched.CoreRef{Machine: site.Machine, Core: site.Core}
	}
	return nil
}

// runTaskRun is phase 3c: the day's supervised batch workload. Serial —
// every fork is ordered and every signal lands in the buffer in task
// order.
func (f *Fleet) runTaskRun(dayRNG *xrand.RNG, st *DayStats) {
	tcfg := f.taskCfg
	before := f.taskSup.Stats()
	for t := 0; t < tcfg.Tasks; t++ {
		id := fmt.Sprintf("tr-d%04d-t%03d", st.Day, t)
		task := &taskrun.Task{ID: id, Start: f.taskrunStart(t)}
		for g := 0; g < tcfg.GranulesPerTask; g++ {
			w := f.allWork[(t+g)%len(f.allWork)]
			task.Granules = append(task.Granules, taskrun.CorpusGranule(w))
		}
		if _, err := f.taskSup.Run(task, dayRNG.ForkString("taskrun:"+id)); err != nil {
			st.TRFailures++
		}
	}
	after := f.taskSup.Stats()
	st.TRGranules += after.Granules - before.Granules
	st.TRRetries += after.Retries - before.Retries
	st.TRMigrations += after.Migrations - before.Migrations
	st.TRRestores += after.Restores - before.Restores
	st.TRSignals += after.SignalsSent - before.SignalsSent
	f.signals = f.merge(f.signals, &st.AutoReports)
}
