package fault_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// alu is the engine's per-op hook, restated: Decide the op and corrupt its
// result if a defect fires.
func alu(c *fault.Core, op fault.OpClass, a, r uint64) uint64 {
	if d := c.Decide(op, a); d != nil {
		return d.CorruptResult(r)
	}
	return r
}

// refCopy is Engine.Copy's word loop: one OpCopy per 8 bytes, the tail
// word zero padded, each word read before it is written.
func refCopy(c *fault.Core, dst, src []byte) {
	n := min(len(dst), len(src))
	for i := 0; i < n; i += 8 {
		end := min(i+8, n)
		var w [8]byte
		copy(w[:], src[i:end])
		v := binary.LittleEndian.Uint64(w[:])
		binary.LittleEndian.PutUint64(w[:], alu(c, fault.OpCopy, v, v))
		copy(dst[i:end], w[:])
	}
}

func crcTable32(poly uint32) (t [256]uint32) {
	for i := range t {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return t
}

func crcTable64(poly uint64) (t [256]uint64) {
	for i := range t {
		crc := uint64(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return t
}

var (
	refCRC32CTable = crcTable32(0x82F63B78)
	refCRC64Table  = crcTable64(0xC96C5795D7870F42)
)

// words reads data as little-endian words, splits them into two equal
// operand vectors, and returns them.
func words(data []byte) (a, b []uint64) {
	ws := make([]uint64, len(data)/8)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	h := len(ws) / 2
	return ws[:h], ws[h : 2*h]
}

func wordBytes(ws ...uint64) []byte {
	out := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// bulkOp is one bulk operation in its fast form (the engine or ecc entry
// point) and its reference per-op loop. here lists units whose defects
// can fire in it; elsewhere is a unit none of its ops use.
type bulkOp struct {
	name      string
	here      []fault.Unit
	elsewhere fault.Unit
	fast, ref func(e *engine.Engine, in []byte) []byte
}

// overlapCopy copies in[src:src+n] onto in[dst:dst+n] within one buffer.
func overlapCopy(dst, src int, copyFn func(e *engine.Engine, dst, src []byte)) func(*engine.Engine, []byte) []byte {
	return func(e *engine.Engine, in []byte) []byte {
		buf := bytes.Clone(in)
		n := len(buf) - max(dst, src)
		if n <= 0 {
			return buf
		}
		copyFn(e, buf[dst:dst+n], buf[src:src+n])
		return buf
	}
}

func bulkOps() []bulkOp {
	engineCopy := func(e *engine.Engine, dst, src []byte) { e.Copy(dst, src) }
	loopCopy := func(e *engine.Engine, dst, src []byte) { refCopy(e.Core(), dst, src) }
	vec := func(f func(e *engine.Engine, dst, a, b []uint64), lane func(a, b uint64) uint64) (fast, ref func(*engine.Engine, []byte) []byte) {
		fast = func(e *engine.Engine, in []byte) []byte {
			a, b := words(in)
			dst := make([]uint64, len(a))
			f(e, dst, a, b)
			return wordBytes(dst...)
		}
		ref = func(e *engine.Engine, in []byte) []byte {
			a, b := words(in)
			dst := make([]uint64, len(a))
			for i := range a {
				dst[i] = alu(e.Core(), fault.OpVec, a[i], lane(a[i], b[i]))
			}
			return wordBytes(dst...)
		}
		return fast, ref
	}
	xorFast, xorRef := vec((*engine.Engine).VecXor, func(a, b uint64) uint64 { return a ^ b })
	addFast, addRef := vec((*engine.Engine).VecAdd, func(a, b uint64) uint64 { return a + b })
	vecUnits := []fault.Unit{fault.UnitVec}
	return []bulkOp{
		{name: "Copy", here: vecUnits, elsewhere: fault.UnitALU,
			fast: func(e *engine.Engine, in []byte) []byte {
				out := make([]byte, len(in))
				e.Copy(out, in)
				return out
			},
			ref: func(e *engine.Engine, in []byte) []byte {
				out := make([]byte, len(in))
				refCopy(e.Core(), out, in)
				return out
			}},
		// dst begins inside src: Copy keeps the word loop, which re-reads
		// bytes it has already written.
		{name: "Copy dst inside src", here: vecUnits, elsewhere: fault.UnitALU,
			fast: overlapCopy(3, 0, engineCopy), ref: overlapCopy(3, 0, loopCopy)},
		{name: "Copy src inside dst", here: vecUnits, elsewhere: fault.UnitALU,
			fast: overlapCopy(0, 5, engineCopy), ref: overlapCopy(0, 5, loopCopy)},
		{name: "Copy dst is src", here: vecUnits, elsewhere: fault.UnitALU,
			fast: overlapCopy(0, 0, engineCopy), ref: overlapCopy(0, 0, loopCopy)},
		{name: "VecXor", here: vecUnits, elsewhere: fault.UnitMul, fast: xorFast, ref: xorRef},
		{name: "VecAdd", here: vecUnits, elsewhere: fault.UnitMul, fast: addFast, ref: addRef},
		{name: "VecSum", here: vecUnits, elsewhere: fault.UnitFPU,
			fast: func(e *engine.Engine, in []byte) []byte {
				a, b := words(in)
				return wordBytes(e.VecSum(append(a, b...)))
			},
			ref: func(e *engine.Engine, in []byte) []byte {
				a, b := words(in)
				var s uint64
				for _, v := range append(a, b...) {
					s = alu(e.Core(), fault.OpVec, v, s+v)
				}
				return wordBytes(s)
			}},
		{name: "CRC32C", here: []fault.Unit{fault.UnitALU}, elsewhere: fault.UnitVec,
			fast: func(e *engine.Engine, in []byte) []byte { return wordBytes(uint64(ecc.CRC32C(e, in))) },
			ref: func(e *engine.Engine, in []byte) []byte {
				crc := uint64(0xFFFFFFFF)
				for _, b := range in {
					idx := e.Xor64(crc, uint64(b)) & 0xFF
					crc = e.Xor64(e.Shr64(crc, 8), uint64(refCRC32CTable[idx]))
				}
				return wordBytes(uint64(uint32(crc ^ 0xFFFFFFFF)))
			}},
		{name: "CRC64", here: []fault.Unit{fault.UnitALU}, elsewhere: fault.UnitMul,
			fast: func(e *engine.Engine, in []byte) []byte { return wordBytes(ecc.CRC64(e, in)) },
			ref: func(e *engine.Engine, in []byte) []byte {
				crc := ^uint64(0)
				for _, b := range in {
					idx := e.Xor64(crc, uint64(b)) & 0xFF
					crc = e.Xor64(e.Shr64(crc, 8), refCRC64Table[idx])
				}
				return wordBytes(^crc)
			}},
		{name: "FNV64a", here: []fault.Unit{fault.UnitALU, fault.UnitMul}, elsewhere: fault.UnitVec,
			fast: func(e *engine.Engine, in []byte) []byte { return wordBytes(ecc.FNV64a(e, in)) },
			ref: func(e *engine.Engine, in []byte) []byte {
				h := uint64(14695981039346656037)
				for _, b := range in {
					h = e.Xor64(h, uint64(b))
					h = e.Mul64(h, 1099511628211)
				}
				return wordBytes(h)
			}},
	}
}

// event is a CorruptionEvent with its defect named by ID, so the events
// of twin cores compare by value.
type event struct {
	defect string
	op     fault.OpClass
	seq    uint64
}

// twin builds a core with defects that records its corruption events.
func twin(defects []fault.Defect) (*fault.Core, *[]event) {
	c := fault.NewCore("bulk", xrand.New(31), defects...)
	events := &[]event{}
	c.OnCorrupt = func(e fault.CorruptionEvent) {
		*events = append(*events, event{e.Defect.ID, e.Op, e.Seq})
	}
	return c, events
}

// TestBulkFastPathsMatchPerOpLoop runs every bulk fast path and its
// reference per-op loop on twin cores — healthy, armed on a unit the op
// does not use, and armed on each unit it does — over a run of sizes, and
// requires the same output bytes, op and corruption counters, corruption
// events with their Seq, and the next 16 draws of the core's stream.
func TestBulkFastPathsMatchPerOpLoop(t *testing.T) {
	sizes := []int{0, 1, 7, 8, 9, 16, 63, 64, 65, 200, 1000, 4096}
	inputs := make([][]byte, len(sizes))
	rng := xrand.New(5)
	for i, n := range sizes {
		inputs[i] = make([]byte, n)
		rng.Bytes(inputs[i])
	}
	defect := func(id string, u fault.Unit) fault.Defect {
		return fault.Defect{ID: id, Unit: u, BaseRate: 0.05, Kind: fault.CorruptBitFlip, BitPos: 5}
	}
	for _, op := range bulkOps() {
		cores := map[string][]fault.Defect{
			"healthy":         nil,
			"armed elsewhere": {defect("elsewhere", op.elsewhere)},
		}
		for _, u := range op.here {
			cores["armed here "+u.String()] = []fault.Defect{defect("here", u), defect("elsewhere", op.elsewhere)}
		}
		for kind, defects := range cores {
			t.Run(op.name+"/"+kind, func(t *testing.T) {
				fc, fastEvents := twin(defects)
				rc, refEvents := twin(defects)
				fe, re := engine.New(fc), engine.New(rc)
				for i, in := range inputs {
					if got, want := op.fast(fe, in), op.ref(re, in); !bytes.Equal(got, want) {
						t.Fatalf("%d bytes: output %x, per-op loop %x", len(in), got, want)
					}
					if fc.OpCount != rc.OpCount || fc.CorruptCount != rc.CorruptCount {
						t.Fatalf("after %d bytes (input %d): ops %v corrupt %v, per-op loop ops %v corrupt %v",
							len(in), i, fc.OpCount, fc.CorruptCount, rc.OpCount, rc.CorruptCount)
					}
				}
				if fmt.Sprint(*fastEvents) != fmt.Sprint(*refEvents) {
					t.Fatalf("corruption events %v, per-op loop %v", *fastEvents, *refEvents)
				}
				if strings.HasPrefix(kind, "armed here") && fc.TotalCorruptions() == 0 {
					t.Fatal("armed here but nothing fired: the case proves nothing")
				}
				if fc.TotalOps() == 0 {
					t.Fatal("no ops counted")
				}
				if got, want := fault.NextDraws(fc, 16), fault.NextDraws(rc, 16); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("next 16 draws %v, per-op loop %v", got, want)
				}
			})
		}
	}
}
