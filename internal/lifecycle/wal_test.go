package lifecycle

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// script drives a deterministic multi-machine history through mgr: a full
// repair loop, an operator maintenance drain, a suspect that is exonerated,
// and a recidivist that ends removed. Every op may append several WAL
// records (Drain cordons first).
func script(t testing.TB, m *Manager) {
	t.Helper()
	ops := []func() (State, error){
		func() (State, error) { return m.MarkSuspect("m00001", 1, "nominated score=8.2") },
		func() (State, error) { return m.Cordon("m00001", 2, "convicted", "detector") },
		func() (State, error) { return m.Drain("m00001", 2, "", "controller") },
		func() (State, error) { return m.MarkDrained("m00001", 3, "controller") },
		func() (State, error) { return m.StartRepair("m00001", 3, "controller") },
		func() (State, error) { return m.Reintroduce("m00001", 9, "", "controller") },
		func() (State, error) { return m.Drain("m00017", 4, "kernel upgrade", "op") },
		func() (State, error) { return m.MarkDrained("m00017", 5, "op") },
		func() (State, error) { return m.Reintroduce("m00017", 6, "maintenance done", "op") },
		func() (State, error) { return m.MarkSuspect("m00042", 7, "nominated") },
		func() (State, error) { return m.Reintroduce("m00042", 8, "software bug", "triage") },
		func() (State, error) { return m.Reintroduce("m00001", 16, "clean probation", "controller") },
		func() (State, error) { return m.Drain("m00001", 20, "convicted again", "detector") },
		func() (State, error) { return m.MarkDrained("m00001", 21, "controller") },
		func() (State, error) { return m.StartRepair("m00001", 21, "controller") },
		func() (State, error) { return m.Reintroduce("m00001", 27, "", "controller") },
		func() (State, error) { return m.Cordon("m00001", 30, "convicted a third time", "detector") },
	}
	for i, op := range ops {
		if _, err := op(); err != nil {
			t.Fatalf("script op %d: %v", i, err)
		}
	}
	// MaxRepairs defaults to 2: the last cordon must have escalated.
	if rec, _ := m.State("m00001"); rec.State != Removed {
		t.Fatalf("script should end with m00001 removed, got %v", rec.State)
	}
}

// writeScriptWAL runs the script against a WAL-backed manager and returns
// the log bytes.
func writeScriptWAL(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "script.wal")
	m, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	script(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// boundaries returns the byte offset just past each record (newline
// included), so boundaries[i] is the file length after i+1 durable writes.
func boundaries(data []byte) []int {
	var out []int
	for i, b := range data {
		if b == '\n' {
			out = append(out, i+1)
		}
	}
	return out
}

// ledgerAfter replays the first n records of data into a fresh manager and
// returns its ledger — the ground-truth pre-crash state after the nth
// durable write.
func ledgerAfter(t *testing.T, data []byte, n int) []Record {
	t.Helper()
	recs, _, err := readLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if n > len(recs) {
		t.Fatalf("ledgerAfter(%d) with only %d records", n, len(recs))
	}
	m := NewManager(Options{})
	for _, r := range recs[:n] {
		if err := m.replay(r); err != nil {
			t.Fatal(err)
		}
	}
	return m.List()
}

// recover writes img to a temp file, opens it, and returns the recovered
// ledger plus info. The reopened manager must also accept a further append
// (the log must be usable, not just readable, after recovery).
func recoverImage(t *testing.T, img []byte) ([]Record, RecoverInfo) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crash.wal")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	m, info, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	ledger := m.List()
	if _, err := m.Drain("m99999", 99, "post-crash append", "test"); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The post-crash append must itself be durable and replayable.
	m2, _, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after post-crash append: %v", err)
	}
	if rec, _ := m2.State("m99999"); rec.State != Draining {
		t.Fatalf("post-crash append lost: m99999 is %v", rec.State)
	}
	m2.Close()
	return ledger, info
}

// TestCrashAtEveryWrite kills the log at every record boundary — the
// "crash after the Nth WAL write" family — and asserts the recovered
// ledger is exactly the pre-crash ledger after N durable writes.
func TestCrashAtEveryWrite(t *testing.T) {
	data := writeScriptWAL(t)
	bounds := boundaries(data)
	if len(bounds) < 15 {
		t.Fatalf("script produced only %d records", len(bounds))
	}
	for n := 0; n <= len(bounds); n++ {
		cut := 0
		if n > 0 {
			cut = bounds[n-1]
		}
		ledger, info := recoverImage(t, data[:cut])
		if info.Records != n || info.TornBytes != 0 {
			t.Fatalf("crash after write %d: recovered %+v", n, info)
		}
		want := ledgerAfter(t, data, n)
		if !recordsEqual(ledger, want) {
			t.Fatalf("crash after write %d: ledger %+v, want %+v", n, ledger, want)
		}
	}
}

// TestCrashMidWrite cuts the log inside every record — torn tail writes —
// and asserts recovery lands on the previous durable write's ledger.
func TestCrashMidWrite(t *testing.T) {
	data := writeScriptWAL(t)
	bounds := boundaries(data)
	for n := 1; n <= len(bounds); n++ {
		start := 0
		if n > 1 {
			start = bounds[n-2]
		}
		end := bounds[n-1]
		recLen := end - start
		for _, d := range []int{1, 5, recLen / 2, recLen - 1} {
			if d <= 0 || d >= recLen {
				continue
			}
			img := data[:start+d]
			ledger, info := recoverImage(t, img)
			if info.Records != n-1 {
				t.Fatalf("torn write %d (cut +%d): recovered %d records, want %d",
					n, d, info.Records, n-1)
			}
			if info.TornBytes != d {
				t.Fatalf("torn write %d (cut +%d): TornBytes %d, want %d", n, d, info.TornBytes, d)
			}
			want := ledgerAfter(t, data, n-1)
			if !recordsEqual(ledger, want) {
				t.Fatalf("torn write %d (cut +%d): ledger mismatch", n, d)
			}
		}
	}
}

// TestCorruptedTailRecord flips bytes in the final record — both in the
// checksum and in the payload — and asserts the record is dropped and the
// rest of the ledger recovers.
func TestCorruptedTailRecord(t *testing.T) {
	data := writeScriptWAL(t)
	bounds := boundaries(data)
	n := len(bounds)
	start := bounds[n-2]
	want := ledgerAfter(t, data, n-1)
	for _, off := range []int{0, 3, 9, 12, (bounds[n-1] - start) / 2} {
		img := append([]byte(nil), data...)
		img[start+off] ^= 0x40
		ledger, info := recoverImage(t, img)
		if info.Records != n-1 {
			t.Fatalf("corrupt tail (byte %d): recovered %d records, want %d", off, info.Records, n-1)
		}
		if info.TornBytes == 0 {
			t.Fatalf("corrupt tail (byte %d): TornBytes = 0", off)
		}
		if !recordsEqual(ledger, want) {
			t.Fatalf("corrupt tail (byte %d): ledger mismatch", off)
		}
	}
	// Trailing garbage after the last record is a torn next write.
	img := append(append([]byte(nil), data...), []byte("???garbage not a record")...)
	ledger, info := recoverImage(t, img)
	if info.Records != n || !recordsEqual(ledger, ledgerAfter(t, data, n)) {
		t.Fatalf("trailing garbage: recovered %d records, want %d", info.Records, n)
	}
}

// TestMidFileCorruptionRefused ensures damage in the middle of the log —
// an invalid record with valid records after it — refuses to open rather
// than silently dropping history.
func TestMidFileCorruptionRefused(t *testing.T) {
	data := writeScriptWAL(t)
	bounds := boundaries(data)
	// Corrupt record 3 of many.
	img := append([]byte(nil), data...)
	img[bounds[2]+2] ^= 0xff
	path := filepath.Join(t.TempDir(), "mid.wal")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("mid-file corruption must refuse to open")
	}
}

// TestFrameRoundTrip pins the frame format: parseAnySeq(frame(t)) == t,
// and pins which records replay decodes without encoding/json. A field
// frame writes in a form decodeRecord does not take fails here.
func TestFrameRoundTrip(t *testing.T) {
	base := Transition{Seq: 7, Day: 3, Machine: "m00042", From: "healthy", To: "cordoned"}
	with := func(edit func(*Transition)) Transition {
		tr := base
		edit(&tr)
		return tr
	}
	cases := []struct {
		name string
		tr   Transition
		fast bool
	}{
		{"optional fields absent", base, true},
		{"optional fields present", with(func(tr *Transition) {
			tr.Reason, tr.Actor, tr.Kind, tr.Pool, tr.Score = "cee", "detector", KindDefer, "web", 7.25
		}), true},
		{"score 0.5", with(func(tr *Transition) { tr.Score = 0.5 }), true},
		{"score 1e-7", with(func(tr *Transition) { tr.Score = 1e-7 }), true},
		{"score 1e21", with(func(tr *Transition) { tr.Score = 1e21 }), true},
		{"score -3", with(func(tr *Transition) { tr.Score = -3 }), true},
		{"negative day", with(func(tr *Transition) { tr.Day = -12 }), true},
		{"quote", with(func(tr *Transition) { tr.Reason = `weird "quotes"` }), false},
		{"tab", with(func(tr *Transition) { tr.Reason = "a\ttab" }), false},
		{"html characters", with(func(tr *Transition) { tr.Actor = "<op>&co" }), false},
		{"non-ASCII", with(func(tr *Transition) { tr.Pool = "café ✓" }), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			line, err := frame(c.tr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(line, []byte("\n")) {
				t.Fatal("frame must be newline-terminated")
			}
			line = bytes.TrimSuffix(line, []byte("\n"))
			got, ok := parseAnySeq(line)
			if !ok || got != c.tr {
				t.Fatalf("round trip: %+v ok=%v", got, ok)
			}
			var fast Transition
			if decodeRecord(line[9:], &fast) != c.fast {
				t.Fatalf("decodeRecord(%s) accepted=%v, want %v", line[9:], !c.fast, c.fast)
			}
		})
	}
}

// writePoolWAL runs pool bookkeeping against a WAL-backed manager and
// returns the log bytes: assignments, a drain, a scored drain the floor
// defers, a deferred cordon, and both intents' admission once the drained
// machine is released.
func writePoolWAL(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pools.wal")
	m, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.DefinePool(PoolConfig{Name: "web", MinHealthyCount: 2})
	for _, id := range []string{"m1", "m2", "m3"} {
		if err := m.AssignPool(id, "web"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Drain("m1", 1, "maintenance", "op"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DrainScored("m2", 2, "cee", "detector", 7.25); !errors.Is(err, ErrDeferred) {
		t.Fatalf("expected deferral, got %v", err)
	}
	if err := m.DeferCordon("m3", 4, "cee", "detector", 1e-7); err != nil {
		t.Fatal(err)
	}
	m.DefinePool(PoolConfig{Name: "web", MinHealthyCount: 1})
	if _, err := m.Reintroduce("m1", 5, "repaired", "op"); err != nil {
		t.Fatal(err)
	}
	if r, _ := m.State("m2"); r.State != Drained {
		t.Fatalf("admitted drain left m2 %v", r.State)
	}
	if r, _ := m.State("m3"); r.State != Cordoned {
		t.Fatalf("admitted cordon left m3 %v", r.State)
	}
	if err := m.AssignPool("m2", ""); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeHistoryWAL writes the shape of the control-plane benchmark's input
// history: every machine goes through cycles of cordon, drain, drained,
// repair and probation.
func writeHistoryWAL(t *testing.T, machines, cycles int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "history.wal")
	m, _, err := Open(path, Options{MaxRepairs: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cycles; c++ {
		for i := 0; i < machines; i++ {
			id := fmt.Sprintf("m%05d", i)
			for _, step := range []func() (State, error){
				func() (State, error) { return m.Cordon(id, c, "history", "bench") },
				func() (State, error) { return m.Drain(id, c, "history", "bench") },
				func() (State, error) { return m.MarkDrained(id, c, "bench") },
				func() (State, error) { return m.StartRepair(id, c, "bench") },
				func() (State, error) { return m.Reintroduce(id, c, "history", "bench") },
			} {
				if _, err := step(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWrittenRecordsTakeFastPath requires every record the manager writes
// to decode through decodeRecord itself, to the Transition encoding/json
// reads, so a later field that quietly sends replay back to reflection
// fails here and not only in the benchmark.
func TestWrittenRecordsTakeFastPath(t *testing.T) {
	kinds := map[string]bool{}
	scored := false
	for name, data := range map[string][]byte{
		"script":  writeScriptWAL(t),
		"pools":   writePoolWAL(t),
		"history": writeHistoryWAL(t, 7, 3),
	} {
		lines := bytes.Split(data, []byte{'\n'})
		for i, line := range lines[:len(lines)-1] {
			payload, ok := framePayload(line)
			if !ok {
				t.Fatalf("%s record %d: bad frame", name, i+1)
			}
			var got, want Transition
			if !decodeRecord(payload, &got) {
				t.Fatalf("%s record %d takes the encoding/json fallback: %s", name, i+1, payload)
			}
			if err := json.Unmarshal(payload, &want); err != nil || got != want {
				t.Fatalf("%s record %d: decoded %+v, encoding/json %+v (%v)", name, i+1, got, want, err)
			}
			kinds[got.Kind] = true
			scored = scored || got.Score != 0
		}
	}
	for _, k := range []string{"", KindDefer, KindUndefer, KindAssign} {
		if !kinds[k] {
			t.Errorf("no record of kind %q was written", k)
		}
	}
	if !scored {
		t.Error("no record with a score was written")
	}
}

// parseAnySeqJSON is parseAnySeq with encoding/json as its only decoder:
// the reference the fast path is checked against.
func parseAnySeqJSON(line []byte) (Transition, bool) {
	var t Transition
	payload, ok := framePayload(line)
	if !ok || json.Unmarshal(payload, &t) != nil {
		return Transition{}, false
	}
	return t, true
}

// readLogSerial is the reference readLog: one line at a time, in order,
// decoded by encoding/json alone, stopping at the first line that fails the
// frame or sequence check. readLog must agree with it on every input at any
// worker count.
func readLogSerial(data []byte) (recs []Transition, goodLen int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return recs, goodLen, nil
		}
		next := uint64(len(recs)) + 1
		t, ok := parseAnySeqJSON(data[off : off+nl])
		if !ok || t.Seq != next {
			rest := data[off+nl+1:]
			lines := bytes.Split(rest, []byte{'\n'})
			for _, line := range lines[:len(lines)-1] {
				if t, ok := parseAnySeqJSON(line); ok && t.Seq >= next {
					return nil, 0, fmt.Errorf("lifecycle: WAL corrupt at byte %d: invalid record followed by %d more bytes of log", off, len(rest))
				}
			}
			return recs, goodLen, nil
		}
		recs = append(recs, t)
		off += nl + 1
		goodLen = off
	}
	return recs, goodLen, nil
}

// checkReadLog fails t unless readLog and readLogSerial agree on data:
// same records, same goodLen, same error (or both none). It returns
// readLog's error.
func checkReadLog(t *testing.T, data []byte) error {
	t.Helper()
	recs, good, err := readLog(data)
	wantRecs, wantGood, wantErr := readLogSerial(data)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("error %v, serial reference %v", err, wantErr)
	}
	if good != wantGood || good > len(data) {
		t.Fatalf("goodLen %d, serial reference %d (len %d)", good, wantGood, len(data))
	}
	if len(recs) != len(wantRecs) {
		t.Fatalf("%d records, serial reference %d", len(recs), len(wantRecs))
	}
	for i := range recs {
		if recs[i] != wantRecs[i] {
			t.Fatalf("record %d: %+v, serial reference %+v", i, recs[i], wantRecs[i])
		}
	}
	return err
}

// frameLog frames n generated records with seq 1..n.
func frameLog(t testing.TB, n int) []byte {
	t.Helper()
	var data []byte
	for i := 1; i <= n; i++ {
		line, err := frame(Transition{Seq: uint64(i), Day: i / 100,
			Machine: fmt.Sprintf("m%05d", i%977), From: "healthy", To: "cordoned",
			Reason: fmt.Sprintf("r%d", i), Actor: "gen"})
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, line...)
	}
	return data
}

// TestReadLogChunkBoundaries runs readLog against its serial reference on
// a log spanning several decode chunks — the crash tests' script log fits
// in one — with damage placed at and around the chunk boundaries.
func TestReadLogChunkBoundaries(t *testing.T) {
	data := frameLog(t, 3*readChunk+100)
	ends := boundaries(data)
	lineStart := func(i int) int {
		if i == 0 {
			return 0
		}
		return ends[i-1]
	}
	// reframe returns a copy of data with line i replaced by tr's frame.
	reframe := func(i int, tr Transition) []byte {
		line, err := frame(tr)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]byte(nil), data[:lineStart(i)]...)
		out = append(out, line...)
		return append(out, data[ends[i]:]...)
	}
	type tc struct {
		name    string
		img     []byte
		wantErr bool
	}
	var cases []tc
	for k := 1; k <= 3; k++ {
		b := ends[k*readChunk-1]
		for _, d := range []int{-1, 0, 1} {
			cases = append(cases, tc{name: fmt.Sprintf("cut %+d at chunk boundary %d", d, k), img: data[:b+d]})
		}
	}
	flipped := append([]byte(nil), data...)
	flipped[lineStart(readChunk)+3] ^= 0x01
	cases = append(cases, tc{name: "crc flip on first line of chunk 2", img: flipped, wantErr: true})
	const wrong = 2*readChunk + 5
	bad, ok := parseAnySeq(data[lineStart(wrong) : ends[wrong]-1])
	if !ok {
		t.Fatalf("line %d of the generated log does not parse", wrong)
	}
	bad.Seq += 1000
	cases = append(cases,
		tc{name: "wrong seq in chunk 3", img: reframe(wrong, bad), wantErr: true},
		tc{name: "torn final record", img: data[:len(data)-7]},
		tc{name: "whole log", img: data},
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(t *testing.T) {
				if err := checkReadLog(t, c.img); (err != nil) != c.wantErr {
					t.Fatalf("error %v, want error=%v", err, c.wantErr)
				}
			})
		}
	}
}

// FuzzReadLog checks that readLog never panics, never claims more than
// the input as its valid prefix, and agrees with the serial reference.
func FuzzReadLog(f *testing.F) {
	data := writeScriptWAL(f)
	bounds := boundaries(data)
	f.Add(data)
	f.Add(data[:bounds[len(bounds)-1]-4])
	f.Add(data[:bounds[2]+11])
	for _, off := range []int{2, bounds[2] + 2, bounds[5] + 20, len(data) - 3} {
		img := append([]byte(nil), data...)
		img[off] ^= 0x40
		f.Add(img)
	}
	f.Add([]byte{})
	f.Add([]byte("\n\n"))
	// Checksum-valid, but the JSON decodes seq before failing on a type
	// error: the line is not a record, whatever seq it half-decoded.
	payload := `{"seq":1,"day":"x"}`
	f.Add([]byte(fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(payload), castagnoli), payload)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadLog(t, data)
	})
}

// FuzzDecodeRecord holds the replay fast path to encoding/json. Whenever
// decodeRecord accepts a payload, json.Unmarshal accepts it too and yields
// the identical Transition; and json.Marshal of any Transition with plain
// ASCII strings, which is what frame writes, is accepted.
func FuzzDecodeRecord(f *testing.F) {
	add := func(payload string) {
		f.Add([]byte(payload), uint64(7), int64(-3), 0.5, "m00042", "healthy", "cordoned", "cee", "detector", KindDefer, "web")
	}
	for _, data := range [][]byte{writeScriptWAL(f), frameLog(f, 3)} {
		lines := bytes.Split(data, []byte{'\n'})
		for _, line := range lines[:len(lines)-1] {
			add(string(line[9:]))
		}
	}
	for _, p := range []string{
		`{"seq":1,"day":"x"}`,
		`{"seq":01,"day":0,"machine":"m","from":"a","to":"b"}`,
		`{"seq":1,"day":-0,"machine":"m","from":"a","to":"b"}`,
		`{"seq":-1,"day":0,"machine":"m","from":"a","to":"b"}`,
		`{"seq":1,"day":1.0,"machine":"m","from":"a","to":"b"}`,
		`{"seq":1000000000000000000,"day":0,"machine":"m","from":"a","to":"b"}`,
		`{"seq":18446744073709551616,"day":0,"machine":"m","from":"a","to":"b"}`,
		`{"seq":1,"day":-9223372036854775809,"machine":"m","from":"a","to":"b"}`,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b","score":1e400}`,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b","score":-0.0e-0}`,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b","score":.5}`,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b","score":1.}`,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b","score":1e+}`,
		"{\"seq\":1,\"day\":0,\"machine\":\"m\x1f\",\"from\":\"a\",\"to\":\"b\"}",
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b","reason":"","pool":"p"}`,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b","actor":"x","reason":"y"}`,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b","reason":null}`,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b"} `,
		`{"seq":1,"day":0,"machine":"m","from":"a","to":"b"}}`,
		`{"SEQ":1,"day":0,"machine":"m","from":"a","to":"b"}`,
		`{"seq":1,"day":0,"machine":"m\u0041","from":"a","to":"b"}`,
	} {
		add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte, seq uint64, day int64, score float64,
		machine, from, to, reason, actor, kind, pool string) {
		var got Transition
		if decodeRecord(payload, &got) {
			var want Transition
			if err := json.Unmarshal(payload, &want); err != nil {
				t.Fatalf("decodeRecord accepted %q, encoding/json refuses it: %v", payload, err)
			}
			if got != want || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Fatalf("%q: decodeRecord %+v, encoding/json %+v", payload, got, want)
			}
		}

		if math.IsNaN(score) || math.IsInf(score, 0) {
			score = 0
		}
		tr := Transition{Seq: seq % 1e18, Day: int(day % 1e18), Machine: plainASCII(machine),
			From: plainASCII(from), To: plainASCII(to), Reason: plainASCII(reason),
			Actor: plainASCII(actor), Kind: plainASCII(kind), Pool: plainASCII(pool), Score: score}
		written, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var back Transition
		if !decodeRecord(written, &back) || back != tr {
			t.Fatalf("decodeRecord(%s) = %+v, want %+v", written, back, tr)
		}
	})
}

// plainASCII keeps the bytes of s that json.Marshal writes unescaped:
// printable ASCII other than '"', '\', '<', '>' and '&'.
func plainASCII(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 0x20 && c <= 0x7e && !strings.ContainsRune(`"\<>&`, rune(c)) {
			out = append(out, c)
		}
	}
	return string(out)
}

// BenchmarkReadLog replays a 100k-record log of the form frame writes.
func BenchmarkReadLog(b *testing.B) {
	data := frameLog(b, 100_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := readLog(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeRecordAllocs pins decodeRecord's allocation budget at one per
// record, earned by the canonical-form decoder: every string field is a
// substring of one string copy of the payload. A budget may fall when a
// change earns it, never rise to let one pass.
func TestDecodeRecordAllocs(t *testing.T) {
	line, err := frame(Transition{Seq: 7, Day: 3, Machine: "m00042", From: "draining", To: "drained",
		Reason: "maint", Actor: "op", Kind: KindDefer, Pool: "web", Score: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := framePayload(bytes.TrimSuffix(line, []byte{'\n'}))
	if !ok {
		t.Fatal("bad frame")
	}
	var tr Transition
	if got := testing.AllocsPerRun(1000, func() {
		if !decodeRecord(payload, &tr) {
			t.Fatal("record took the encoding/json fallback")
		}
	}); got > 1 {
		t.Errorf("decodeRecord allocates %v per record, budget 1 (earned by substring fields)", got)
	}
}
