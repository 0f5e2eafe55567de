// Package forensics implements the §9 research ask to "develop methods to
// detect novel defect modes": Mode and ModeDB classify a characterization
// screen into a defect-mode signature (which execution units are
// implicated, and whether the failures reproduce deterministically) and
// track which signatures the fleet has seen before. A novel signature is
// exactly the §6 situation where "new tests might be developed, in
// response to newly-discovered defect modes, after deployment".
package forensics

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/screen"
)

// Mode is an observable defect-mode signature derived from a
// characterization screen: the set of implicated execution units plus
// gross reproducibility. It deliberately contains nothing that requires
// knowing the underlying defect — production triage cannot see that.
type Mode struct {
	// Units is the sorted set of execution units implicated by failing
	// workloads.
	Units []fault.Unit
	// Deterministic is true when every pass at some operating point
	// failed (the defect reproduces on demand).
	Deterministic bool
}

// Key renders the mode as a stable map key.
func (m Mode) Key() string {
	parts := make([]string, len(m.Units))
	for i, u := range m.Units {
		parts[i] = u.String()
	}
	k := strings.Join(parts, "+")
	if m.Deterministic {
		k += "/det"
	} else {
		k += "/int"
	}
	return k
}

func (m Mode) String() string { return "mode[" + m.Key() + "]" }

// Classify derives the mode signature from a characterization report. The
// report should come from a full (StopOnDetect=false) screen so the
// failing-workload set is complete. ok is false when the report contains
// no detections (nothing to classify).
func Classify(rep screen.Report) (Mode, bool) {
	if len(rep.Detections) == 0 {
		return Mode{}, false
	}
	unitSet := map[fault.Unit]bool{}
	failuresPerWorkload := map[string]int{}
	for _, det := range rep.Detections {
		failuresPerWorkload[det.Result.Workload]++
		w, err := corpus.ByName(det.Result.Workload)
		if err != nil {
			continue
		}
		for _, u := range w.Units() {
			unitSet[u] = true
		}
	}
	units := make([]fault.Unit, 0, len(unitSet))
	for u := range unitSet {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })

	// Deterministic heuristic: some workload failed on every pass run.
	det := false
	for _, n := range failuresPerWorkload {
		if rep.PassesRun > 0 && n >= rep.PassesRun {
			det = true
			break
		}
	}
	return Mode{Units: units, Deterministic: det}, true
}

// ModeDB tracks the defect modes a fleet has confirmed so far. Safe for
// concurrent use.
type ModeDB struct {
	mu   sync.Mutex
	seen map[string]int
}

// NewModeDB returns an empty mode database.
func NewModeDB() *ModeDB {
	return &ModeDB{seen: map[string]int{}}
}

// Observe records a mode occurrence and reports whether it was novel —
// the trigger for §6's "develop a new automatable test" loop.
func (db *ModeDB) Observe(m Mode) (novel bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	k := m.Key()
	if db.seen[k] == 0 {
		novel = true
	}
	db.seen[k]++
	return novel
}
