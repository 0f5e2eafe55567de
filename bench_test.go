// Package repro's root benchmarks measure what DESIGN.md §5's ablations
// and §7's runtime cost: the fault-model engine against native execution,
// protection granularity (per-call verification against task-level
// DMR/TMR), each screening-corpus workload on a healthy core, and the
// taskrun checkpoint overhead. The experiment tables are pinned by
// TestExperimentsGolden in internal/experiments, not benchmarked here.
//
//	go test -run '^$' -bench . -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mitigate"
	"repro/internal/selfcheck"
	"repro/internal/taskrun"
	"repro/internal/xrand"
)

// --- Ablation benchmarks (DESIGN.md §5) ----------------------------------

// BenchmarkAblationEngineOverhead quantifies the cost of routing
// operations through the fault-model engine versus native execution — the
// price of op-level injection.
func BenchmarkAblationEngineOverhead(b *testing.B) {
	b.Run("native-add", func(b *testing.B) {
		var s uint64
		for i := 0; i < b.N; i++ {
			s += uint64(i)
		}
		_ = s
	})
	b.Run("engine-add-healthy", func(b *testing.B) {
		e := engine.New(fault.NewCore("h", xrand.New(1)))
		var s uint64
		for i := 0; i < b.N; i++ {
			s = e.Add64(s, uint64(i))
		}
		_ = s
	})
	b.Run("engine-add-defective", func(b *testing.B) {
		d := fault.Defect{ID: "d", Unit: fault.UnitALU, BaseRate: 1e-6,
			Kind: fault.CorruptBitFlip, BitPos: 7}
		e := engine.New(fault.NewCore("m", xrand.New(2), d))
		var s uint64
		for i := 0; i < b.N; i++ {
			s = e.Add64(s, uint64(i))
		}
		_ = s
	})
}

// BenchmarkAblationGranularity compares protection granularities for the
// same crypto workload: per-call library verification vs task-level DMR vs
// task-level TMR (DESIGN.md's self-checking-granularity ablation).
func BenchmarkAblationGranularity(b *testing.B) {
	blocks := make([]uint64, 64)
	for i := range blocks {
		blocks[i] = uint64(i) * 31
	}
	const key = 42
	mkPool := func() []*fault.Core {
		rng := xrand.New(5)
		pool := make([]*fault.Core, 4)
		for i := range pool {
			pool[i] = fault.NewCore(fmt.Sprintf("p%d", i), rng)
		}
		return pool
	}
	comp := func(e *engine.Engine) []byte {
		out := make([]byte, 0, len(blocks)*8)
		for _, x := range blocks {
			ct := e.CryptoEncrypt64(x, key)
			for k := 0; k < 8; k++ {
				out = append(out, byte(ct>>(8*uint(k))))
			}
		}
		return out
	}
	b.Run("per-call-verified", func(b *testing.B) {
		pool := mkPool()
		v := selfcheck.NewVerifier(engine.New(pool[0]), engine.New(pool[1]))
		for i := 0; i < b.N; i++ {
			if _, err := v.EncryptBlocks(blocks, key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("task-dmr", func(b *testing.B) {
		x := mitigate.NewExecutor(mkPool(), 6)
		for i := 0; i < b.N; i++ {
			if _, _, err := x.DMR(comp, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("task-tmr", func(b *testing.B) {
		x := mitigate.NewExecutor(mkPool(), 7)
		for i := 0; i < b.N; i++ {
			if _, _, err := x.TMR(comp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorpusWorkloads measures the per-workload cost of the screening
// corpus on a healthy core — the denominator of every screening budget.
func BenchmarkCorpusWorkloads(b *testing.B) {
	for _, w := range corpus.All() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			e := engine.New(fault.NewCore("h", xrand.New(1)))
			rng := xrand.New(2)
			for i := 0; i < b.N; i++ {
				if res := w.Run(e, rng); res.Verdict != corpus.Pass {
					b.Fatalf("%s failed on healthy core: %s", w.Name(), res.Detail)
				}
			}
		})
	}
}

// BenchmarkTaskrunCheckpointOverhead measures what the checkpoint/retry
// runtime costs on healthy silicon: the same corpus granule run bare on
// an engine, under the supervisor (record + verify + commit), and under
// the supervisor in paranoid mode (every granule DMR-replayed on a second
// core before commit). The supervised/bare ratio is the price of §7's
// safety net when nothing goes wrong; paranoid adds roughly one extra
// execution, as DMR should.
func BenchmarkTaskrunCheckpointOverhead(b *testing.B) {
	work := func() corpus.Workload { return corpus.NewArith(1024) }
	b.Run("bare", func(b *testing.B) {
		w := work()
		e := engine.New(fault.NewCore("h", xrand.New(1)))
		for i := 0; i < b.N; i++ {
			if res := w.Run(e, xrand.New(uint64(i))); res.Verdict != corpus.Pass {
				b.Fatalf("healthy core failed corpus: %+v", res)
			}
		}
	})
	supervised := func(b *testing.B, paranoid bool) {
		rng := xrand.New(2)
		cores := make([]*fault.Core, 2)
		for i := range cores {
			cores[i] = fault.NewCore(fmt.Sprintf("m0/c%d", i), rng)
		}
		cluster, provider, err := taskrun.NewPool("m0", cores)
		if err != nil {
			b.Fatal(err)
		}
		sup, err := taskrun.NewSupervisor(cluster, provider, taskrun.Config{Paranoid: paranoid})
		if err != nil {
			b.Fatal(err)
		}
		g := taskrun.CorpusGranule(work())
		for i := 0; i < b.N; i++ {
			task := &taskrun.Task{ID: fmt.Sprintf("t%d", i), Granules: []taskrun.Granule{g}}
			if _, err := sup.Run(task, xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
		if st := sup.Stats(); st.Restores != 0 {
			b.Fatalf("healthy pool restored %d checkpoints", st.Restores)
		}
	}
	b.Run("supervised", func(b *testing.B) { supervised(b, false) })
	b.Run("supervised-paranoid", func(b *testing.B) { supervised(b, true) })
}
