// Package syncfs measures the lifecycle WAL from outside: it wraps the
// lifecycle.FS seam, counts and times every write and sync, and remembers
// how many bytes of each file a successful Sync has covered. That synced
// size is what the durability check needs: kill -9 leaves the operating
// system's cache intact, so the check itself discards the unflushed bytes
// by truncating the file to the synced size before it reopens the log.
package syncfs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/bench/hist"
	"repro/internal/lifecycle"
)

// FS wraps a lifecycle.FS. It is safe for concurrent use.
type FS struct {
	inner lifecycle.FS

	mu      sync.Mutex
	writes  uint64
	syncs   uint64
	bytes   uint64
	writeNs hist.H
	syncNs  hist.H
	synced  map[string]int64
}

// New wraps inner; nil means the real filesystem.
func New(inner lifecycle.FS) *FS {
	if inner == nil {
		inner = lifecycle.OSFS()
	}
	return &FS{inner: inner, synced: map[string]int64{}}
}

// Stats is a snapshot of the traffic seen so far.
type Stats struct {
	Writes, Syncs, Bytes uint64
	// WriteNs and SyncNs time each call, in nanoseconds.
	WriteNs, SyncNs hist.H
}

// Stats returns a copy of the counters and timing histograms.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := Stats{Writes: fs.writes, Syncs: fs.syncs, Bytes: fs.bytes}
	st.WriteNs.Merge(&fs.writeNs)
	st.SyncNs.Merge(&fs.syncNs)
	return st
}

// SyncedSize returns how many leading bytes of the file at path the last
// successful Sync covered (0 if it was never synced through this FS). Read
// it before closing the file's owner: closing a WAL syncs once more.
func (fs *FS) SyncedSize(path string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.synced[path]
}

// OpenFile opens path on the wrapped filesystem. A file that already
// exists counts as synced up to its current size: those bytes were there
// before this process wrote anything.
func (fs *FS) OpenFile(path string) (lifecycle.File, error) {
	f, err := fs.inner.OpenFile(path)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("syncfs: sizing %s: %w", path, err)
	}
	fs.mu.Lock()
	fs.synced[path] = size
	fs.mu.Unlock()
	return &file{File: f, fs: fs, path: path, size: size}, nil
}

// file tracks its own position and size so that Sync knows what it
// covered. The WAL serializes calls on one file, so pos and size need no
// lock of their own; the shared counters take the FS lock.
type file struct {
	lifecycle.File
	fs   *FS
	path string
	pos  int64
	size int64
}

func (f *file) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.pos += int64(n)
	return n, err
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	pos, err := f.File.Seek(offset, whence)
	if err == nil {
		f.pos = pos
	}
	return pos, err
}

func (f *file) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	took := time.Since(start)
	f.pos += int64(n)
	if f.pos > f.size {
		f.size = f.pos
	}
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.bytes += uint64(n)
	f.fs.writeNs.Record(uint64(took))
	f.fs.mu.Unlock()
	return n, err
}

func (f *file) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		f.size = size
		f.fs.mu.Lock()
		if f.fs.synced[f.path] > size {
			f.fs.synced[f.path] = size
		}
		f.fs.mu.Unlock()
	}
	return err
}

func (f *file) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	took := time.Since(start)
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.syncNs.Record(uint64(took))
	if err == nil {
		f.fs.synced[f.path] = f.size
	}
	f.fs.mu.Unlock()
	return err
}

// CheckDurable is the crash test for a closed WAL. It truncates the file
// at path to syncedSize — the bytes a crash could not have lost — reopens
// the log on the real filesystem and requires that replay is exactly the
// first base records (history that predates the run) followed by acked, in
// order. acked is every record the ledger acknowledged during the run, as
// its Observer saw them. A record acknowledged before its Sync is missing
// after the truncation and fails the check, as does a record in the log
// that was never acknowledged.
func CheckDurable(path string, syncedSize int64, base int, acked []lifecycle.Transition) error {
	if err := os.Truncate(path, syncedSize); err != nil {
		return fmt.Errorf("syncfs: discarding unsynced bytes: %w", err)
	}
	wal, recs, info, err := lifecycle.OpenWAL(path)
	if err != nil {
		return fmt.Errorf("syncfs: reopening %s: %w", path, err)
	}
	if err := wal.Close(); err != nil {
		return fmt.Errorf("syncfs: closing %s: %w", path, err)
	}
	if len(recs) < base {
		return fmt.Errorf("syncfs: replay has %d records, fewer than the %d that predate the run", len(recs), base)
	}
	got := recs[base:]
	if len(got) < len(acked) {
		return fmt.Errorf("syncfs: acked but not durable: %d records acknowledged, %d survive a crash (first lost: seq %d, %d torn bytes)",
			len(acked), len(got), acked[len(got)].Seq, info.TornBytes)
	}
	for i, want := range acked {
		if got[i] != want {
			return fmt.Errorf("syncfs: replay differs from the acknowledged history at record %d: log has %+v, acked %+v", i, got[i], want)
		}
	}
	if len(got) > len(acked) {
		return fmt.Errorf("syncfs: replay holds %d records that were never acknowledged (first: %+v)", len(got)-len(acked), got[len(acked)])
	}
	return nil
}
