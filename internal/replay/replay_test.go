package replay

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/xrand"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	rec := &Recorder{
		NextU64:   rng.Uint64,
		NextBytes: func() []byte { b := make([]byte, 8); rng.Bytes(b); return b },
		NextBool:  func() bool { return rng.Bernoulli(0.5) },
	}
	var us []uint64
	var bs [][]byte
	var fs []bool
	for i := 0; i < 20; i++ {
		u, err := rec.U64()
		if err != nil {
			t.Fatal(err)
		}
		us = append(us, u)
		b, err := rec.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
		f, err := rec.Bool()
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	tape := rec.Tape()
	if len(tape.entries) != 60 {
		t.Fatalf("tape length %d", len(tape.entries))
	}

	p := NewReplayer(tape)
	for i := 0; i < 20; i++ {
		u, err := p.U64()
		if err != nil || u != us[i] {
			t.Fatalf("u64 %d: %v %v", i, u, err)
		}
		b, err := p.Bytes()
		if err != nil || string(b) != string(bs[i]) {
			t.Fatalf("bytes %d mismatch", i)
		}
		f, err := p.Bool()
		if err != nil || f != fs[i] {
			t.Fatalf("bool %d mismatch", i)
		}
	}
	if p.pos != len(tape.entries) {
		t.Fatalf("remaining = %d", len(tape.entries)-p.pos)
	}
}

func TestReplayTapeExhausted(t *testing.T) {
	rec := &Recorder{NextU64: func() uint64 { return 7 }}
	rec.U64()
	p := NewReplayer(rec.Tape())
	if _, err := p.U64(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.U64(); !errors.Is(err, ErrTapeExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayKindMismatch(t *testing.T) {
	rec := &Recorder{NextU64: func() uint64 { return 7 }}
	rec.U64()
	p := NewReplayer(rec.Tape())
	if _, err := p.Bytes(); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecorderMissingProviders(t *testing.T) {
	rec := &Recorder{}
	if _, err := rec.U64(); err == nil {
		t.Fatal("missing NextU64 accepted")
	}
	if _, err := rec.Bytes(); err == nil {
		t.Fatal("missing NextBytes accepted")
	}
	if _, err := rec.Bool(); err == nil {
		t.Fatal("missing NextBool accepted")
	}
}

func TestTapeSnapshotIsolation(t *testing.T) {
	rec := &Recorder{NextU64: func() uint64 { return 1 }}
	rec.U64()
	tape := rec.Tape()
	rec.U64() // recorded after the snapshot
	if len(tape.entries) != 1 {
		t.Fatalf("snapshot grew: %d", len(tape.entries))
	}
}

func TestReplayerBytesCopied(t *testing.T) {
	rec := &Recorder{NextBytes: func() []byte { return []byte{1, 2, 3} }}
	rec.Bytes()
	tape := rec.Tape()
	p := NewReplayer(tape)
	b, _ := p.Bytes()
	b[0] = 99
	p2 := NewReplayer(tape)
	b2, _ := p2.Bytes()
	if b2[0] != 1 {
		t.Fatal("replayed bytes share storage with the tape")
	}
}

func TestKindString(t *testing.T) {
	if KindU64.String() != "u64" || KindBytes.String() != "bytes" || KindBool.String() != "bool" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should include number")
	}
}

func TestReplayExhaustedCarriesLabelAndPosition(t *testing.T) {
	rec := &Recorder{Label: "granule-7", NextU64: func() uint64 { return 7 }}
	rec.U64()
	rec.U64()
	tape := rec.Tape()
	if got := tape.label; got != "granule-7" {
		t.Fatalf("tape label = %q", got)
	}
	p := NewReplayer(tape)
	p.U64()
	p.U64()
	_, err := p.U64()
	if !errors.Is(err, ErrTapeExhausted) {
		t.Fatalf("err = %v, want ErrTapeExhausted", err)
	}
	if !strings.Contains(err.Error(), `granule "granule-7"`) {
		t.Fatalf("error %q does not name the granule", err)
	}
	if !strings.Contains(err.Error(), "position 2") {
		t.Fatalf("error %q does not carry the position", err)
	}
	if p.pos != 2 {
		t.Fatalf("position = %d, want 2", p.pos)
	}
}

func TestReplayKindMismatchCarriesLabelAndPosition(t *testing.T) {
	rec := &Recorder{Label: "crc-step", NextU64: func() uint64 { return 1 }}
	rec.U64()
	p := NewReplayer(rec.Tape())
	_, err := p.Bytes()
	if !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("err = %v, want ErrKindMismatch", err)
	}
	for _, want := range []string{`granule "crc-step"`, "position 0", "u64", "bytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	if p.pos != 0 {
		t.Fatalf("position = %d, want 0 (mismatch does not consume)", p.pos)
	}
}

func TestReplayUnlabeledErrorsOmitGranule(t *testing.T) {
	rec := &Recorder{NextU64: func() uint64 { return 1 }}
	rec.U64()
	p := NewReplayer(rec.Tape())
	p.U64()
	_, err := p.U64()
	if !errors.Is(err, ErrTapeExhausted) {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(err.Error(), "granule") {
		t.Fatalf("unlabeled error %q should not mention a granule", err)
	}
}
