package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/hist"
)

// span is one timed call into a layer, as the traced run records it: what
// was called, when, under which parent span, and for which request or
// episode. Times are nanoseconds since the recorder was made.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how an untraced run goes through the same
// code.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id (0 when not recording).
func (r *recorder) add(name string, parent, req uint64, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	id := r.next.Add(1)
	sp := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	return id
}

// durations returns the lengths of every span called name, in ns.
func (r *recorder) durations(name string) *hist.H {
	var h hist.H
	if r == nil {
		return &h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sp := range r.spans {
		if sp.Name == name && sp.End >= sp.Start {
			h.Record(uint64(sp.End - sp.Start))
		}
	}
	return &h
}

// writeFile writes the spans as JSON lines to dir/trace-<workload>.jsonl.
func (r *recorder) writeFile(dir, workload string) error {
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
