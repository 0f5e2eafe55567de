package corpus

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Compress is the compression-library workload: an LZ77-style codec whose
// match search, hashing, and data movement all route through the engine.
// The self-check compresses on the core under test, compresses natively,
// and compares both the streams and the decompressed output — the
// "check the results against expected results" discipline of §1.
type Compress struct {
	// Bytes is the input size per run.
	Bytes int
}

// NewCompress returns a Compress workload over the given input size.
func NewCompress(n int) *Compress { return &Compress{Bytes: n} }

// Name implements Workload.
func (*Compress) Name() string { return "lz-compress" }

// Units implements Workload.
func (*Compress) Units() []fault.Unit {
	return []fault.Unit{fault.UnitALU, fault.UnitMul, fault.UnitVec}
}

// LZ stream format:
//
//	0x00..0x7F: literal run of length N (1..127), followed by N bytes
//	0x80|N:     match of length N+minMatch (minMatch..minMatch+127),
//	            followed by a 2-byte little-endian backward offset (>= 1)
const (
	lzMinMatch = 4
	lzMaxMatch = lzMinMatch + 127
	lzMaxLit   = 127
	lzWindow   = 1 << 16
	lzHashBits = 12
)

// lzHash hashes the 4 bytes at src[i:] through the engine's multiplier.
func lzHash(e *engine.Engine, src []byte, i int) uint64 {
	w := uint64(src[i]) | uint64(src[i+1])<<8 | uint64(src[i+2])<<16 | uint64(src[i+3])<<24
	return e.Shr64(e.Mul64(w, 2654435761), 64-lzHashBits)
}

// LZCompress compresses src through the engine.
func LZCompress(e *engine.Engine, src []byte) []byte {
	var out []byte
	var table [1 << lzHashBits]int
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	flushLiterals := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > lzMaxLit {
				n = lzMaxLit
			}
			out = append(out, byte(n))
			pos := len(out)
			out = append(out, make([]byte, n)...)
			e.Copy(out[pos:], src[litStart:litStart+n])
			litStart += n
		}
	}
	i := 0
	for i+lzMinMatch <= len(src) {
		h := lzHash(e, src, i)
		cand := table[h]
		table[h] = i
		if cand >= 0 && i-cand < lzWindow {
			// Verify and extend the match through the compare unit.
			n := 0
			max := len(src) - i
			if max > lzMaxMatch {
				max = lzMaxMatch
			}
			for n < max && e.Equal64(uint64(src[cand+n]), uint64(src[i+n])) {
				n++
			}
			if n >= lzMinMatch {
				flushLiterals(i)
				off := i - cand
				out = append(out, byte(0x80|(n-lzMinMatch)), byte(off), byte(off>>8))
				i += n
				litStart = i
				continue
			}
		}
		i++
	}
	flushLiterals(len(src))
	return out
}

// lzOps counts the engine ops of one LZ roundtrip by class.
type lzOps struct{ mul, shift, cmp, copy uint64 }

// lzEncode is LZCompress computed natively: the stream LZCompress returns
// on a core that corrupts nothing, which is the golden stream, and the ops
// LZCompress and then LZDecompress issue for it.
func lzEncode(src []byte) ([]byte, lzOps) {
	var out []byte
	var ops lzOps
	var table [1 << lzHashBits]int
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	flushLiterals := func(end int) {
		for litStart < end {
			n := min(end-litStart, lzMaxLit)
			out = append(out, byte(n))
			out = append(out, src[litStart:litStart+n]...)
			ops.copy += 2 * uint64((n+7)/8) // one word op per 8 bytes, each way
			litStart += n
		}
	}
	i := 0
	for i+lzMinMatch <= len(src) {
		w := uint64(src[i]) | uint64(src[i+1])<<8 | uint64(src[i+2])<<16 | uint64(src[i+3])<<24
		h := w * 2654435761 >> (64 - lzHashBits)
		ops.mul++
		ops.shift++
		cand := table[h]
		table[h] = i
		if cand >= 0 && i-cand < lzWindow {
			n := 0
			max := min(len(src)-i, lzMaxMatch)
			for n < max && src[cand+n] == src[i+n] {
				n++
			}
			// One compare per matched byte, plus the mismatch that ended it.
			ops.cmp += uint64(n)
			if n < max {
				ops.cmp++
			}
			if n >= lzMinMatch {
				flushLiterals(i)
				off := i - cand
				out = append(out, byte(0x80|(n-lzMinMatch)), byte(off), byte(off>>8))
				ops.copy += uint64(n) // decompressed byte by byte
				i += n
				litStart = i
				continue
			}
		}
		i++
	}
	flushLiterals(len(src))
	return out, ops
}

// ErrCorrupt reports a malformed LZ stream.
var ErrCorrupt = errors.New("corpus: corrupt LZ stream")

// LZDecompress decompresses through the engine. A corrupted stream yields
// ErrCorrupt (the detected-wrong-answer case); a stream that decodes
// cleanly to wrong bytes is the silent case the caller must catch by
// comparison.
func LZDecompress(e *engine.Engine, comp []byte) ([]byte, error) {
	var out []byte
	i := 0
	for i < len(comp) {
		ctrl := comp[i]
		i++
		if ctrl&0x80 == 0 {
			n := int(ctrl)
			if n == 0 || i+n > len(comp) {
				return nil, ErrCorrupt
			}
			pos := len(out)
			out = append(out, make([]byte, n)...)
			e.Copy(out[pos:], comp[i:i+n])
			i += n
			continue
		}
		n := int(ctrl&0x7F) + lzMinMatch
		if i+2 > len(comp) {
			return nil, ErrCorrupt
		}
		off := int(comp[i]) | int(comp[i+1])<<8
		i += 2
		if off == 0 || off > len(out) {
			return nil, ErrCorrupt
		}
		// Overlapping copies must proceed byte by byte, via the copy path.
		for j := 0; j < n; j++ {
			var b [1]byte
			e.Copy(b[:], out[len(out)-off:len(out)-off+1])
			out = append(out, b[0])
		}
	}
	return out, nil
}

// compressible produces input with repeated runs so matches actually occur.
func compressible(rng *xrand.RNG, n int) []byte {
	words := [][]byte{
		[]byte("mercurial "), []byte("core "), []byte("silent "),
		[]byte("corrupt "), []byte("execution "), []byte("error "),
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		if rng.Float64() < 0.2 {
			out = append(out, byte(rng.Uint64()))
		} else {
			out = append(out, words[rng.Intn(len(words))]...)
		}
	}
	return out[:n]
}

var compressUnits = unitsOf(&Compress{})

// Run implements Workload. The golden stream comes from the native
// encoder on every core.
func (w *Compress) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		src := compressible(rng, w.Bytes)
		goldenComp, ops := lzEncode(src)
		if c := e.Core(); !c.AnyArmed(compressUnits) {
			c.OpCount[fault.OpMul] += ops.mul
			c.OpCount[fault.OpShift] += ops.shift
			c.OpCount[fault.OpCmp] += ops.cmp
			c.OpCount[fault.OpCopy] += ops.copy
			return ""
		}
		comp := LZCompress(e, src)
		if !bytes.Equal(comp, goldenComp) {
			return fmt.Sprintf("compressed stream differs from golden (%d vs %d bytes)",
				len(comp), len(goldenComp))
		}
		dec, err := LZDecompress(e, comp)
		if err != nil {
			return fmt.Sprintf("decompress: %v", err)
		}
		if !bytes.Equal(dec, src) {
			return "roundtrip mismatch"
		}
		return ""
	})
}
