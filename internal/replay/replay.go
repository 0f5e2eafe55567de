// Package replay provides deterministic record/replay of computation
// inputs, the §7 building block for replicated execution: "Perhaps a
// compiler could automatically replicate computations to three cores, and
// use techniques from the deterministic-replay literature to choose the
// largest possible computation granules (i.e., to cope with
// non-deterministic inputs and to avoid externalizing unreliable
// outputs)."
//
// A computation that consumes nondeterministic inputs (time, randomness,
// network messages) cannot be compared across replicas directly. Wrapping
// its input boundary in a Recorder makes the first execution produce a
// Tape; Replayers feed the identical values to the replicas, so replica
// divergence can only come from the hardware — exactly what DMR/TMR need
// to vote on.
package replay

import (
	"errors"
	"fmt"
)

// Errors returned by replay sources.
var (
	// ErrTapeExhausted means the replica consumed more inputs than the
	// recording — a control-flow divergence, itself a CEE signal.
	ErrTapeExhausted = errors.New("replay: tape exhausted")
	// ErrKindMismatch means the replica asked for a different kind of
	// input than the recording at the same position — also divergence.
	ErrKindMismatch = errors.New("replay: input kind mismatch")
)

// Kind tags a recorded input so replay can detect control-flow skew.
type Kind uint8

// Input kinds.
const (
	KindU64 Kind = iota
	KindBytes
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindU64:
		return "u64"
	case KindBytes:
		return "bytes"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// entry is one recorded input.
type entry struct {
	kind Kind
	u    uint64
	b    []byte
}

// Tape is an immutable recording of a computation's input sequence.
type Tape struct {
	label   string
	entries []entry
}

// Source is the input boundary a replicable computation reads through.
// Recorder and Replayer both implement it.
type Source interface {
	// U64 obtains the next 64-bit input (e.g. a timestamp, an RNG draw).
	U64() (uint64, error)
	// Bytes obtains the next byte-string input (e.g. a network message).
	Bytes() ([]byte, error)
	// Bool obtains the next boolean input (e.g. a channel-ready flag).
	Bool() (bool, error)
}

// Recorder wraps a live input provider and records everything it returns.
type Recorder struct {
	// Label names the computation being recorded (e.g. a taskrun granule).
	// It is carried onto the tape and into replay-divergence errors so a
	// supervisor can attribute a control-flow divergence to its granule.
	Label string
	// NextU64 supplies live 64-bit inputs.
	NextU64 func() uint64
	// NextBytes supplies live byte-string inputs.
	NextBytes func() []byte
	// NextBool supplies live boolean inputs.
	NextBool func() bool
	tape     Tape
}

// U64 implements Source.
func (r *Recorder) U64() (uint64, error) {
	if r.NextU64 == nil {
		return 0, errors.New("replay: no NextU64 provider")
	}
	v := r.NextU64()
	r.tape.entries = append(r.tape.entries, entry{kind: KindU64, u: v})
	return v, nil
}

// Bytes implements Source.
func (r *Recorder) Bytes() ([]byte, error) {
	if r.NextBytes == nil {
		return nil, errors.New("replay: no NextBytes provider")
	}
	v := r.NextBytes()
	cp := append([]byte(nil), v...)
	r.tape.entries = append(r.tape.entries, entry{kind: KindBytes, b: cp})
	return v, nil
}

// Bool implements Source.
func (r *Recorder) Bool() (bool, error) {
	if r.NextBool == nil {
		return false, errors.New("replay: no NextBool provider")
	}
	v := r.NextBool()
	var u uint64
	if v {
		u = 1
	}
	r.tape.entries = append(r.tape.entries, entry{kind: KindBool, u: u})
	return v, nil
}

// Tape returns the recording so far. The returned tape shares no mutable
// state with the recorder's future appends beyond the recorded prefix.
func (r *Recorder) Tape() *Tape {
	return &Tape{label: r.Label, entries: append([]entry(nil), r.tape.entries...)}
}

// Replayer feeds a tape back to a replica.
type Replayer struct {
	tape *Tape
	pos  int
}

// NewReplayer returns a replayer positioned at the start of the tape.
func NewReplayer(t *Tape) *Replayer { return &Replayer{tape: t} }

// where renders the tape's granule label for error messages.
func (p *Replayer) where() string {
	if p.tape.label == "" {
		return ""
	}
	return fmt.Sprintf(" (granule %q)", p.tape.label)
}

func (p *Replayer) next(kind Kind) (entry, error) {
	if p.pos >= len(p.tape.entries) {
		return entry{}, fmt.Errorf("%w at position %d%s", ErrTapeExhausted, p.pos, p.where())
	}
	e := p.tape.entries[p.pos]
	if e.kind != kind {
		return entry{}, fmt.Errorf("%w at position %d%s: tape has %v, replica wants %v",
			ErrKindMismatch, p.pos, p.where(), e.kind, kind)
	}
	p.pos++
	return e, nil
}

// U64 implements Source.
func (p *Replayer) U64() (uint64, error) {
	e, err := p.next(KindU64)
	return e.u, err
}

// Bytes implements Source.
func (p *Replayer) Bytes() ([]byte, error) {
	e, err := p.next(KindBytes)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), e.b...), nil
}

// Bool implements Source.
func (p *Replayer) Bool() (bool, error) {
	e, err := p.next(KindBool)
	return e.u != 0, err
}
