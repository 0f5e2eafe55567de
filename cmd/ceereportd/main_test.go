package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/report"
)

func TestParsePools(t *testing.T) {
	cases := []struct {
		spec    string
		want    []lifecycle.PoolConfig
		wantErr bool
	}{
		{spec: "", want: nil},
		{spec: "web:0.9", want: []lifecycle.PoolConfig{{Name: "web", MinHealthy: 0.9}}},
		{spec: "db:2", want: []lifecycle.PoolConfig{{Name: "db", MinHealthyCount: 2}}},
		{
			spec: "web:0.9, db:2",
			want: []lifecycle.PoolConfig{
				{Name: "web", MinHealthy: 0.9},
				{Name: "db", MinHealthyCount: 2},
			},
		},
		{spec: "web:1", want: []lifecycle.PoolConfig{{Name: "web", MinHealthyCount: 1}}},
		{spec: "web:0.9,web:2", wantErr: true}, // duplicate name
		{spec: "web", wantErr: true},           // missing floor
		{spec: ":0.9", wantErr: true},          // missing name
		{spec: "web:zero", wantErr: true},      // non-numeric floor
		{spec: "web:0", wantErr: true},         // zero floor
		{spec: "web:-1", wantErr: true},        // negative floor
		{spec: "web:2.5", wantErr: true},       // fractional absolute floor
	}
	for _, tc := range cases {
		got, err := parsePools(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parsePools(%q): want error, got %+v", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parsePools(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parsePools(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// syncBuffer collects the daemon's stderr, which its logger and the
// -notify-log sink write from different goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serve starts run with args on ln (a fresh loopback listener when nil).
// It returns a client for the daemon and a stop function that sends
// SIGTERM and returns run's exit status and stderr.
func serve(t *testing.T, ln net.Listener, args ...string) (*report.Client, func() (int, string)) {
	t.Helper()
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan os.Signal, 1)
	done := make(chan int, 1)
	var stderr syncBuffer
	go func() { done <- run(args, ln, stop, &stderr) }()
	c := &report.Client{BaseURL: "http://" + ln.Addr().String()}
	return c, func() (int, string) {
		stop <- syscall.SIGTERM
		return <-done, stderr.String()
	}
}

// TestRun serves the daemon on a loopback listener over a temp WAL, sends
// it one report batch and one drain, stops it, and restarts it on the same
// WAL to find the drain recovered.
func TestRun(t *testing.T) {
	ctx := context.Background()
	wal := filepath.Join(t.TempDir(), "lifecycle.wal")
	args := []string{"-wal", wal, "-pools", "web:1", "-notify-log", "-cores-per-machine", "8"}

	c, stop := serve(t, nil, args...)
	batch := report.Batch{Source: "test", Seq: 1}
	for range 4 {
		batch.Reports = append(batch.Reports, report.Report{Machine: "m1", Core: 3, Kind: "mce"})
	}
	if ack, err := c.ReportBatchContext(ctx, batch); err != nil || ack.Accepted != 4 {
		t.Fatalf("batch: ack %+v, err %v", ack, err)
	}
	if st, err := c.Stats(ctx); err != nil || st.TotalReports != 4 {
		t.Fatalf("stats after the batch: %+v, err %v", st, err)
	}
	for _, id := range []string{"m1", "m2"} {
		if _, err := c.MachineAction(ctx, id, "assign", report.ActionRequest{Pool: "web"}); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := c.MachineAction(ctx, "m1", "drain", report.ActionRequest{Reason: "maint", Actor: "op"}); err != nil || m.State != "drained" {
		t.Fatalf("drain m1: %+v, err %v", m, err)
	}
	code, stderr := stop()
	if code != 0 {
		t.Fatalf("first run: exit %d, want 0\n%s", code, stderr)
	}
	for _, want := range []string{
		"ledger recovered from " + wal + " (0 records",
		"listening on 127.0.0.1:",
		"machine m1 draining -> drained (maint by op)",
		"terminated received, draining",
		"drained cleanly",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("first run: stderr lacks %q\n%s", want, stderr)
		}
	}

	c, stop = serve(t, nil, args...)
	m, err := c.Machine(ctx, "m1")
	if err != nil || m.State != "drained" || m.Pool != "web" || m.LastReason != "maint" {
		t.Errorf("m1 after restart: %+v, err %v; want drained in web for maint", m, err)
	}
	code, stderr = stop()
	if code != 0 || !strings.Contains(stderr, "(5 records, 0 torn bytes truncated)") {
		t.Fatalf("second run: exit %d, want 0 after replaying 5 records\n%s", code, stderr)
	}
}

// TestRunMaxRepairs runs the daemon with -max-repairs 1: once a machine
// has completed one repair cycle, its next cordon removes it for good
// (at the default of 2 it would only be cordoned).
func TestRunMaxRepairs(t *testing.T) {
	ctx := context.Background()
	c, stop := serve(t, nil, "-wal", filepath.Join(t.TempDir(), "lifecycle.wal"), "-max-repairs", "1")
	for _, verb := range []string{"drain", "repair", "release", "cordon"} {
		if _, err := c.MachineAction(ctx, "m1", verb, report.ActionRequest{Reason: "test"}); err != nil {
			t.Fatalf("%s m1: %v", verb, err)
		}
	}
	if m, err := c.Machine(ctx, "m1"); err != nil || m.State != "removed" || m.RepairCycles != 1 {
		t.Errorf("m1 after a second cordon: %+v, err %v; want removed after 1 repair cycle", m, err)
	}
	if code, stderr := stop(); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, stderr)
	}
}

// TestRunFailures pins the exit status of each way run can fail: 2 for
// usage, 1 for a WAL or listener that does not work.
func TestRunFailures(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want int
		msg  string
	}{
		{[]string{"-h"}, 0, "-cores-per-machine"},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-cores-per-machine", "0"}, 2, "must be positive"},
		{[]string{"-wal", filepath.Join(dir, "x.wal"), "-pools", "web:x"}, 2, "-pools: pool"},
		{[]string{"-notify-log"}, 2, "need the lifecycle ledger"},
	} {
		var stderr syncBuffer
		if code := run(c.args, nil, nil, &stderr); code != c.want || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("run %q: exit %d, want %d; stderr %q lacks %q", c.args, code, c.want, stderr.String(), c.msg)
		}
	}

	// A WAL path that is a directory cannot be opened.
	_, stop := serve(t, nil, "-wal", dir)
	if code, stderr := stop(); code != 1 || !strings.Contains(stderr, "lifecycle WAL") {
		t.Errorf("directory as WAL: exit %d, want 1\n%s", code, stderr)
	}

	// A listener that fails while no stop signal can arrive.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	var stderr syncBuffer
	if code := run(nil, ln, nil, &stderr); code != 1 || !strings.Contains(stderr.String(), "ceereportd: serve:") {
		t.Errorf("closed listener: exit %d, want 1\n%s", code, stderr.String())
	}
}
