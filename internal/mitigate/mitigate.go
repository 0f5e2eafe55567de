// Package mitigate implements the CEE-tolerance mechanisms sketched in §7:
// dual-modular execution with retry on disagreement, triple-modular
// redundancy with majority voting, and selective replication of critical
// computations. Checkpoint/restart on a different core lives in package
// taskrun.
//
// All mechanisms run a Computation on cores drawn from a pool; the paper's
// "run a computation on two cores, and if they disagree, restart on a
// different pair of cores from a checkpoint" is Executor.DMR.
package mitigate

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Computation is a deterministic function of the engine it runs on: given
// equal inputs it must produce identical output on any healthy core.
type Computation func(*engine.Engine) []byte

// ErrNoQuorum reports that replicated execution could not produce a
// majority answer.
var ErrNoQuorum = errors.New("mitigate: no majority among replicas")

// ErrRetriesExhausted reports that DMR retries ran out.
var ErrRetriesExhausted = errors.New("mitigate: retries exhausted")

// Stats accounts the cost and behaviour of a mitigated execution — the
// numbers behind experiment E7's overhead table.
type Stats struct {
	// Executions is the number of times the computation ran.
	Executions int
	// Disagreements counts replica mismatches observed.
	Disagreements int
	// Retries counts restart rounds.
	Retries int
	// Ops is the total engine operations consumed.
	Ops uint64
}

// Executor runs computations on a pool of cores.
type Executor struct {
	cores []*fault.Core
	rng   *xrand.RNG
}

// NewExecutor returns an executor over the pool. The pool must contain at
// least one core; DMR needs two, TMR three.
func NewExecutor(cores []*fault.Core, seed uint64) *Executor {
	return &Executor{cores: append([]*fault.Core(nil), cores...), rng: xrand.New(seed)}
}

// pick selects n distinct cores, excluding indices in excl.
func (x *Executor) pick(n int, excl map[int]bool) ([]int, error) {
	avail := make([]int, 0, len(x.cores))
	for i := range x.cores {
		if !excl[i] {
			avail = append(avail, i)
		}
	}
	if len(avail) < n {
		return nil, fmt.Errorf("mitigate: need %d cores, only %d available", n, len(avail))
	}
	x.rng.Shuffle(len(avail), func(i, j int) { avail[i], avail[j] = avail[j], avail[i] })
	return avail[:n], nil
}

// runOn executes comp on core index i, accounting ops into st.
func (x *Executor) runOn(i int, comp Computation, st *Stats) []byte {
	core := x.cores[i]
	before := core.TotalOps()
	out := comp(engine.New(core))
	st.Executions++
	st.Ops += core.TotalOps() - before
	return out
}

// Once runs the computation once on a random core — the unprotected
// baseline whose cost the mitigations are measured against.
func (x *Executor) Once(comp Computation) ([]byte, Stats, error) {
	var st Stats
	idx, err := x.pick(1, nil)
	if err != nil {
		return nil, st, err
	}
	out := x.runOn(idx[0], comp, &st)
	return out, st, nil
}

// DMR runs the computation on two cores; on disagreement it restarts on a
// different pair, up to maxRounds rounds. Cost ~2× when cores agree.
//
// When retries exhaust the pool of never-used cores, cores are reused —
// but never the exact pair that just disagreed: re-running the same pair
// would deterministically reproduce the same disagreement on a
// deterministic defect. On a pool too small to avoid both members, the
// next pair differs in at least one core; only a two-core pool may repeat
// a pair, since no other pair exists.
func (x *Executor) DMR(comp Computation, maxRounds int) ([]byte, Stats, error) {
	var st Stats
	if maxRounds < 1 {
		maxRounds = 1
	}
	used := map[int]bool{}
	lastA, lastB := -1, -1
	for round := 0; round < maxRounds; round++ {
		idx, err := x.pick(2, used)
		if err != nil {
			// Pool exhausted: allow reuse, excluding the failing pair.
			used = map[int]bool{}
			if lastA >= 0 {
				used[lastA] = true
				used[lastB] = true
			}
			idx, err = x.pick(2, used)
			if err != nil && lastA >= 0 {
				// Three-core pool: excluding both members leaves one core.
				// Exclude a single member so the pair still changes.
				used = map[int]bool{lastA: true}
				idx, err = x.pick(2, used)
				if err != nil {
					// Two-core pool: the failing pair is the only pair.
					used = map[int]bool{}
					idx, err = x.pick(2, used)
				}
			}
			if err != nil {
				return nil, st, err
			}
		}
		a := x.runOn(idx[0], comp, &st)
		b := x.runOn(idx[1], comp, &st)
		if bytes.Equal(a, b) {
			return a, st, nil
		}
		st.Disagreements++
		st.Retries++
		lastA, lastB = idx[0], idx[1]
		used[idx[0]] = true
		used[idx[1]] = true
	}
	return nil, st, ErrRetriesExhausted
}

// TMR runs the computation on three cores and majority-votes the outputs.
// The vote itself executes natively — §7 notes the voting mechanism must be
// reliable; here the host is the reliable substrate. Cost ~3×.
func (x *Executor) TMR(comp Computation) ([]byte, Stats, error) {
	return x.NModular(comp, 3)
}

// NModular generalizes TMR to n replicas with majority voting — the
// "certain computations are critical enough that we are willing to pay"
// knob. n must be odd: an even split carries no majority, so even n buys
// extra executions without buying extra decisiveness. Even n is rejected
// rather than silently accepted.
func (x *Executor) NModular(comp Computation, n int) ([]byte, Stats, error) {
	var st Stats
	if n < 1 {
		return nil, st, fmt.Errorf("mitigate: NModular needs n >= 1, got %d", n)
	}
	if n%2 == 0 {
		return nil, st, fmt.Errorf("mitigate: NModular needs odd n for a guaranteed possible majority, got %d", n)
	}
	idx, err := x.pick(n, nil)
	if err != nil {
		return nil, st, err
	}
	outs := make([][]byte, n)
	for i, c := range idx {
		outs[i] = x.runOn(c, comp, &st)
	}
	need := n/2 + 1
	for i, a := range outs {
		votes := 1
		for j, b := range outs {
			if i != j && bytes.Equal(a, b) {
				votes++
			}
		}
		if votes >= need {
			if votes != n {
				st.Disagreements++
			}
			return a, st, nil
		}
	}
	st.Disagreements++
	return nil, st, ErrNoQuorum
}
