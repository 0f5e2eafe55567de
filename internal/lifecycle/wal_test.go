package lifecycle

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
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

// TestFrameRoundTrip pins the frame format: parseAnySeq(frame(t)) == t.
func TestFrameRoundTrip(t *testing.T) {
	tr := Transition{Seq: 7, Day: 3, Machine: "m00042", From: "healthy", To: "cordoned",
		Reason: "weird \"quotes\" and\ttabs", Actor: "op"}
	line, err := frame(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(line, []byte("\n")) {
		t.Fatal("frame must be newline-terminated")
	}
	got, ok := parseAnySeq(bytes.TrimSuffix(line, []byte("\n")))
	if !ok || got.Seq != 7 || got != tr {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
}

// readLogSerial is the reference readLog: one line at a time, in order,
// stopping at the first line that fails the frame or sequence check.
// readLog must agree with it on every input at any worker count.
func readLogSerial(data []byte) (recs []Transition, goodLen int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return recs, goodLen, nil
		}
		t, ok := parseAnySeq(data[off : off+nl])
		if !ok || t.Seq != uint64(len(recs))+1 {
			rest := data[off+nl+1:]
			if tailHoldsRecord(rest, uint64(len(recs))+1) {
				return nil, 0, fmt.Errorf("lifecycle: WAL corrupt at byte %d: invalid record followed by %d more bytes of log", off, len(rest))
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
func frameLog(t *testing.T, n int) []byte {
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
