package lifecycle

// The write-ahead log. Every lifecycle transition is one CRC-framed JSONL
// record appended (and by default fsynced) before the in-memory ledger
// mutates, so a crash at any instant loses at most the transition whose
// Append had not yet returned. The framing is
//
//	<crc32c hex, 8 chars> <json payload>\n
//
// where the checksum covers exactly the payload bytes. A record is durable
// iff its line is complete: newline-terminated, checksum-valid, JSON-valid,
// and carrying the next expected sequence number. On open the tail is
// classified:
//
//   - a torn tail (missing newline, short line, checksum or JSON failure on
//     the FINAL line) is the expected kill -9 signature: the tail is
//     truncated away and replay recovers the pre-crash ledger;
//   - an invalid record FOLLOWED by a valid one is not a torn write — it is
//     mid-file corruption, and Open refuses the log rather than silently
//     dropping history.
import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"

	"repro/internal/parallel"
)

// Record kinds. The zero kind is an ordinary state transition; the others
// persist pool bookkeeping so drain intents and pool membership survive
// crashes exactly like the ledger itself.
const (
	// KindDefer parks a capacity-blocked drain/cordon intent: To holds the
	// intended target state, Pool and Score the queue position.
	KindDefer = "defer"
	// KindUndefer clears a machine's deferred intent (admitted, superseded
	// or stale); Reason says which.
	KindUndefer = "undefer"
	// KindAssign sets a machine's pool membership (Pool field).
	KindAssign = "assign"
)

// Transition is one WAL record: machine m moved From → To on Day. Records
// with a non-empty Kind are pool bookkeeping, not state transitions (see
// the Kind constants); old logs without the extra fields replay unchanged.
type Transition struct {
	Seq     uint64  `json:"seq"`
	Day     int     `json:"day"`
	Machine string  `json:"machine"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Reason  string  `json:"reason,omitempty"`
	Actor   string  `json:"actor,omitempty"`
	Kind    string  `json:"kind,omitempty"`
	Pool    string  `json:"pool,omitempty"`
	Score   float64 `json:"score,omitempty"`
}

// File is the slice of *os.File the WAL uses. The chaos harness swaps in
// fault-injecting implementations; everything else gets the real file.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// FS opens WAL files. The default is the real filesystem (OSFS).
type FS interface {
	OpenFile(path string) (File, error)
}

type osFS struct{}

func (osFS) OpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}

// OSFS returns the real-filesystem FS used by OpenWAL.
func OSFS() FS { return osFS{} }

// castagnoli is the CRC-32C table (the polynomial storage systems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecoverInfo describes what Open found in an existing log.
type RecoverInfo struct {
	// Records is the number of durable transitions replayed.
	Records int
	// TornBytes is the size of the discarded torn tail (0 for a clean log).
	TornBytes int
}

// WAL is an append-only transition log backed by one file. Appends are
// serialized by the owning Manager; a WAL itself is not safe for
// concurrent use.
type WAL struct {
	f    File
	path string
	seq  uint64
	// off is the byte offset of the durable prefix: everything before it
	// is acknowledged, everything after it is rollback territory.
	off int64
	// lastErr is the most recent append failure, cleared by the next
	// successful append — the /v1/readyz "WAL writability" signal.
	lastErr error
	// broken is set when a failed append could not be rolled back: the
	// on-disk tail no longer matches the acknowledged prefix, so every
	// further append must fail rather than risk mid-file corruption.
	broken bool
	// NoSync skips the per-record fsync — only tests (and callers that
	// accept losing the OS buffer on power failure) should set it.
	NoSync bool
}

// frame renders one record line (checksum + payload + newline).
func frame(t Transition) ([]byte, error) {
	payload, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	var sum [4]byte
	crc := crc32.Checksum(payload, castagnoli)
	sum[0], sum[1], sum[2], sum[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	line = append(line, []byte(hex.EncodeToString(sum[:]))...)
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// readChunk is the number of lines one replay worker decodes per work
// item: large enough that claiming an item costs nothing next to the JSON
// decoding, small enough that two cores share a 200k-record log evenly.
const readChunk = 2048

// readLog scans data into the durable record prefix. It returns the
// replayable transitions, the byte length of that valid prefix, and an
// error only for mid-file corruption (an invalid record with valid records
// after it — torn tails are fine and reported via the shorter goodLen).
//
// The log is split into lines once, the lines are decoded in parallel into
// one preallocated slice (each worker writes only its own slots), and a
// serial pass then applies the validity rules in order, so the result does
// not depend on the worker count. A slot whose Seq is not its line number
// (1-based) is invalid: parseAnySeq leaves a zero Seq on failure.
func readLog(data []byte) (recs []Transition, goodLen int, err error) {
	ends := make([]int, 0, bytes.Count(data, []byte{'\n'}))
	for off := 0; ; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Anything after the last newline is an unterminated final
			// line: torn tail by definition, never decoded.
			break
		}
		off += nl + 1
		ends = append(ends, off)
	}
	parsed := make([]Transition, len(ends))
	nChunks := (len(ends) + readChunk - 1) / readChunk
	parallel.ForEach(0, nChunks, func(c int) {
		hi := min((c+1)*readChunk, len(ends))
		for i := c * readChunk; i < hi; i++ {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			parsed[i], _ = parseAnySeq(data[start : ends[i]-1])
		}
	})
	for i := range parsed {
		if parsed[i].Seq == uint64(i)+1 {
			goodLen = ends[i]
			continue
		}
		// The line is complete (newline-terminated) but invalid. If
		// anything after it parses as a record, the damage is in the
		// middle of the log — refuse it.
		rest := data[ends[i]:]
		if tailHoldsRecord(rest, uint64(i)+1) {
			return nil, 0, fmt.Errorf("lifecycle: WAL corrupt at byte %d: invalid record followed by %d more bytes of log", goodLen, len(rest))
		}
		return parsed[:i], goodLen, nil
	}
	return parsed, goodLen, nil
}

// tailHoldsRecord reports whether rest contains at least one structurally
// valid, newline-terminated record (any plausible sequence number — after
// damage we cannot know how many records were lost).
func tailHoldsRecord(rest []byte, minSeq uint64) bool {
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return false
		}
		line := rest[:nl]
		// Accept any seq >= minSeq as evidence of a later record: probe
		// structurally, then check the range.
		if t, ok := parseAnySeq(line); ok && t.Seq >= minSeq {
			return true
		}
		rest = rest[nl+1:]
	}
	return false
}

// parseAnySeq validates one newline-stripped line's frame and decodes its
// payload, whatever its sequence number. ok=false (with a zero Transition)
// means the bytes do not form a record.
func parseAnySeq(line []byte) (Transition, bool) {
	payload, ok := framePayload(line)
	if !ok {
		return Transition{}, false
	}
	var t Transition
	if decodeRecord(payload, &t) {
		return t, true
	}
	// A separate variable: the one json.Unmarshal sees escapes to the heap,
	// and the fast path should not pay for that allocation.
	var slow Transition
	if err := json.Unmarshal(payload, &slow); err != nil {
		// A type error can leave fields half-decoded; readLog relies on a
		// failed line carrying a zero Seq.
		return Transition{}, false
	}
	return slow, true
}

// framePayload checks one newline-stripped line's checksum framing and
// returns the payload it covers.
func framePayload(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return nil, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, castagnoli) != uint32(sum[0])<<24|uint32(sum[1])<<16|uint32(sum[2])<<8|uint32(sum[3]) {
		return nil, false
	}
	return payload, true
}

// decodeRecord is replay's fast path. It decodes payload only when it is in
// the form frame writes: keys in declaration order with empty optional fields
// left out, no whitespace, strings of printable ASCII with no '"' or '\',
// integers of at most 18 digits, and '}' as the last byte. Anything else
// returns false with t untouched, and the caller falls back to
// encoding/json, so a payload is accepted, rejected or decoded exactly as
// json.Unmarshal would (FuzzDecodeRecord holds it to that). The fields are
// substrings of one string copy of payload: one allocation per record.
func decodeRecord(payload []byte, t *Transition) bool {
	d := recordDecoder{s: string(payload)}
	var r Transition
	d.expect(`{"seq":`)
	r.Seq = d.digits()
	d.expect(`,"day":`)
	r.Day = d.int()
	d.expect(`,"machine":`)
	r.Machine = d.str()
	d.expect(`,"from":`)
	r.From = d.str()
	d.expect(`,"to":`)
	r.To = d.str()
	if d.skip(`,"reason":`) {
		r.Reason = d.str()
	}
	if d.skip(`,"actor":`) {
		r.Actor = d.str()
	}
	if d.skip(`,"kind":`) {
		r.Kind = d.str()
	}
	if d.skip(`,"pool":`) {
		r.Pool = d.str()
	}
	if d.skip(`,"score":`) {
		r.Score = d.float()
	}
	if d.bad || d.s[d.i:] != "}" {
		return false
	}
	*t = r
	return true
}

// recordDecoder is decodeRecord's cursor. The first step that fails sets
// bad, and every later step is then a no-op.
type recordDecoder struct {
	s   string
	i   int
	bad bool
}

// skip consumes lit if the input continues with it.
func (d *recordDecoder) skip(lit string) bool {
	if d.bad || len(d.s)-d.i < len(lit) || d.s[d.i:d.i+len(lit)] != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// expect consumes lit, which must come next.
func (d *recordDecoder) expect(lit string) {
	if !d.skip(lit) {
		d.bad = true
	}
}

// digits consumes a JSON integer without sign: "0", or 1 to 18 digits with
// no leading zero, so the value cannot overflow.
func (d *recordDecoder) digits() uint64 {
	start := d.i
	var v uint64
	for !d.bad && d.i < len(d.s) && d.s[d.i]-'0' <= 9 {
		v = v*10 + uint64(d.s[d.i]-'0')
		d.i++
	}
	n := d.i - start
	if n == 0 || n > 18 || (n > 1 && d.s[start] == '0') {
		d.bad = true
	}
	return v
}

// int consumes a JSON integer with an optional minus sign.
func (d *recordDecoder) int() int {
	neg := d.skip("-")
	v := int64(d.digits())
	if neg {
		v = -v
	}
	// On a 32-bit platform json.Unmarshal rejects what int cannot hold.
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

// str consumes a string of printable ASCII with no escapes.
func (d *recordDecoder) str() string {
	if !d.skip(`"`) {
		d.bad = true
		return ""
	}
	for start := d.i; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			return d.s[start : d.i-1]
		case c < 0x20 || c > 0x7e || c == '\\':
			d.bad = true
			return ""
		}
	}
	d.bad = true
	return ""
}

// float consumes a number in the strict JSON grammar and parses it with the
// call encoding/json makes for a float64 field.
func (d *recordDecoder) float() float64 {
	start := d.i
	d.skip("-")
	if !d.skip("0") {
		d.run()
	}
	if d.skip(".") {
		d.run()
	}
	if d.skip("e") || d.skip("E") {
		_ = d.skip("+") || d.skip("-")
		d.run()
	}
	if d.bad {
		return 0
	}
	v, err := strconv.ParseFloat(d.s[start:d.i], 64)
	if err != nil {
		d.bad = true
	}
	return v
}

// run consumes one or more decimal digits.
func (d *recordDecoder) run() {
	start := d.i
	for d.i < len(d.s) && d.s[d.i]-'0' <= 9 {
		d.i++
	}
	if d.i == start {
		d.bad = true
	}
}

// OpenWAL opens (creating if absent) the log at path on the real
// filesystem, replays its durable records, truncates any torn tail, and
// positions the file for appends.
func OpenWAL(path string) (*WAL, []Transition, RecoverInfo, error) {
	return OpenWALFS(OSFS(), path)
}

// OpenWALFS is OpenWAL against an arbitrary filesystem — the seam the
// chaos harness uses to inject disk faults under the log.
func OpenWALFS(fsys FS, path string) (*WAL, []Transition, RecoverInfo, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, nil, RecoverInfo{}, err
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, RecoverInfo{}, err
	}
	recs, goodLen, err := readLog(data)
	if err != nil {
		f.Close()
		return nil, nil, RecoverInfo{}, err
	}
	info := RecoverInfo{Records: len(recs), TornBytes: len(data) - goodLen}
	if info.TornBytes > 0 {
		if err := f.Truncate(int64(goodLen)); err != nil {
			f.Close()
			return nil, nil, info, err
		}
	}
	if _, err := f.Seek(int64(goodLen), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, info, err
	}
	w := &WAL{f: f, path: path, seq: uint64(len(recs)), off: int64(goodLen)}
	return w, recs, info, nil
}

// readAll reads the whole file in one buffer sized from its length,
// leaving the offset at the end of the data.
func readAll(f File) ([]byte, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Append assigns the next sequence number, writes the framed record, and
// (unless NoSync) fsyncs. On any error the record must be considered not
// durable and the caller must not apply the transition; the partial bytes
// are rolled back (truncated) so a later append cannot strand an
// unacknowledged record mid-file. If the rollback itself fails the log is
// marked broken and refuses all further appends.
func (w *WAL) Append(t Transition) (Transition, error) {
	if w.broken {
		return t, fmt.Errorf("lifecycle: WAL broken by earlier unrecoverable append failure: %w", w.lastErr)
	}
	t.Seq = w.seq + 1
	line, err := frame(t)
	if err != nil {
		return t, err
	}
	if _, err := w.f.Write(line); err != nil {
		return t, w.fail(fmt.Errorf("lifecycle: WAL append: %w", err))
	}
	if !w.NoSync {
		if err := w.f.Sync(); err != nil {
			// The bytes may be in the file but are not durable: roll them
			// back so the on-disk log stays exactly the acknowledged prefix.
			return t, w.fail(fmt.Errorf("lifecycle: WAL sync: %w", err))
		}
	}
	w.seq = t.Seq
	w.off += int64(len(line))
	w.lastErr = nil
	return t, nil
}

// fail records an append failure and rolls the file back to the durable
// prefix. The returned error wraps cause (and the rollback failure, if
// that also went wrong).
func (w *WAL) fail(cause error) error {
	w.lastErr = cause
	if err := w.f.Truncate(w.off); err != nil {
		w.broken = true
		w.lastErr = fmt.Errorf("%w (rollback truncate failed: %v; log disabled)", cause, err)
		return w.lastErr
	}
	if _, err := w.f.Seek(w.off, io.SeekStart); err != nil {
		w.broken = true
		w.lastErr = fmt.Errorf("%w (rollback seek failed: %v; log disabled)", cause, err)
		return w.lastErr
	}
	return cause
}

// Err returns the most recent append failure (nil after a successful
// append). A broken log — one whose rollback failed — reports its error
// permanently.
func (w *WAL) Err() error { return w.lastErr }

// Seq returns the sequence number of the last durable record.
func (w *WAL) Seq() uint64 { return w.seq }

// Close syncs and closes the underlying file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	if !w.NoSync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	err := w.f.Close()
	w.f = nil
	return err
}
