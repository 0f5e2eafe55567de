package syncfs

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lifecycle"
)

// drive cordons n machines through a manager on fs and returns what the
// ledger acknowledged and the synced size just before it closed.
func drive(t *testing.T, fs *FS, path string, n int, noSync bool) ([]lifecycle.Transition, int64) {
	t.Helper()
	wal, _, _, err := lifecycle.OpenWALFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	wal.NoSync = noSync
	var acked []lifecycle.Transition
	m := lifecycle.NewManager(lifecycle.Options{
		WAL:      wal,
		Observer: func(tr lifecycle.Transition) { acked = append(acked, tr) },
	})
	for i := 0; i < n; i++ {
		if _, err := m.Cordon(machine(i), 1, "test", "t"); err != nil {
			t.Fatal(err)
		}
	}
	synced := fs.SyncedSize(path)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return acked, synced
}

func machine(i int) string { return "m" + string(rune('a'+i)) }

func TestSyncedWALPassesAndIsCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	fs := New(nil)
	acked, synced := drive(t, fs, path, 5, false)
	if len(acked) != 5 {
		t.Fatalf("acked %d records, want 5", len(acked))
	}
	// Five appends, and the sync WAL.Close adds on the way out.
	st := fs.Stats()
	if st.Writes != 5 || st.Syncs != 6 || st.Bytes != uint64(synced) {
		t.Errorf("stats %d writes %d syncs %d bytes, want 5/6/%d", st.Writes, st.Syncs, st.Bytes, synced)
	}
	if st.SyncNs.Count() != st.Syncs || st.WriteNs.Count() != st.Writes {
		t.Errorf("timed %d syncs and %d writes, counted %d and %d", st.SyncNs.Count(), st.WriteNs.Count(), st.Syncs, st.Writes)
	}
	if err := CheckDurable(path, synced, 0, acked); err != nil {
		t.Fatalf("per-record-fsync WAL must pass: %v", err)
	}
}

// A WAL that acknowledges before it syncs — what a wrong group commit
// would do — must be caught: its records are in the file (and would
// survive kill -9) but not in the synced prefix.
func TestAckBeforeSyncIsCaught(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	fs := New(nil)
	acked, synced := drive(t, fs, path, 5, true)
	if synced != 0 {
		t.Fatalf("synced size %d for a WAL that never synced", synced)
	}
	err := CheckDurable(path, synced, 0, acked)
	if err == nil || !strings.Contains(err.Error(), "acked but not durable") {
		t.Fatalf("ack-before-sync not caught: %v", err)
	}
}

func TestHistoryBeforeTheRunCountsAsSynced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	first, _ := drive(t, New(nil), path, 3, false)

	fs := New(nil)
	m, info, err := lifecycle.Open(path, lifecycle.Options{FS: fs})
	if err != nil || info.Records != len(first) {
		t.Fatalf("reopen: %v, %d records", err, info.Records)
	}
	var acked []lifecycle.Transition
	m.SetObserver(func(tr lifecycle.Transition) { acked = append(acked, tr) })
	if _, err := m.Cordon("late", 2, "test", "t"); err != nil {
		t.Fatal(err)
	}
	synced := fs.SyncedSize(path)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CheckDurable(path, synced, len(first), acked); err != nil {
		t.Fatal(err)
	}
	// The same log with one acknowledgement the file never held.
	phantom := append(acked, lifecycle.Transition{Seq: 99, Machine: "ghost"})
	if err := CheckDurable(path, synced, len(first), phantom); err == nil {
		t.Fatal("an acknowledged record missing from the log must fail")
	}
	// And with a durable record nobody acknowledged.
	if err := CheckDurable(path, synced, len(first), nil); err == nil ||
		!strings.Contains(err.Error(), "never acknowledged") {
		t.Fatalf("unacknowledged record not reported: %v", err)
	}
}
