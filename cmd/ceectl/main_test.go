package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/report"
)

// TestRunAgainstDaemon drives every ceectl command, in order, against an
// in-process ceereportd handler whose lifecycle ledger has a "web" pool
// with a serving floor of two machines on a temp-dir WAL.
func TestRunAgainstDaemon(t *testing.T) {
	mgr, _, err := lifecycle.Open(filepath.Join(t.TempDir(), "ceectl.wal"), lifecycle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.DefinePool(lifecycle.PoolConfig{Name: "web", MinHealthyCount: 2})
	srv := report.NewServer(8)
	srv.SetLifecycle(mgr)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	steps := []struct {
		args       string
		wantCode   int
		wantStdout string // exact, unless empty
		wantStderr string // substring, unless empty
	}{
		{"", 2, "", "usage: ceectl"},
		{"bogus", 2, "", `unknown command "bogus"`},
		{"help", 0, "", ""},
		{"assign m1 -pool web", 0, "m1           healthy    since_day=0    repairs=0 transitions=0 pool=web\n", ""},
		{"assign m2 -pool web", 0, "", ""},
		{"assign m3 -pool web", 0, "", ""},
		{"assign m4", 2, "", "usage: ceectl assign <machine> -pool <name>"},
		{"drain m1 -reason maint -day 3", 0, "m1           drained    since_day=3    repairs=0 transitions=3 pool=web reason=\"maint\"\n", ""},
		// m1 is out, so the pool is at its floor: this drain is parked.
		{"drain m2 -reason maint -score 4", 0, "m2           healthy    since_day=0    repairs=0 transitions=0 pool=web deferred=true\n", ""},
		{"cordon -reason ops m5", 0, "m5           cordoned   since_day=0    repairs=0 transitions=1 reason=\"ops\"\n", ""},
		{"cordon", 2, "", "usage: ceectl cordon <machine>"},
		{"list", 0, "" +
			"MACHINE  STATE     POOL  SINCE  REPAIRS  REASON\n" +
			"m1       drained   web   3      0        maint\n" +
			"m2       healthy   web   0      0        -\n" +
			"m3       healthy   web   0      0        -\n" +
			"m5       cordoned  -     0      0        ops\n", "4 machine(s)"},
		{"list -state drained -pool web", 0, "" +
			"MACHINE  STATE    POOL  SINCE  REPAIRS  REASON\n" +
			"m1       drained  web   3      0        maint\n", "1 machine(s)"},
		{"list -state bogus", 1, "", "400"},
		{"list -bogus", 2, "", "flag provided but not defined"},
		{"list -h", 0, "", "-state"},
		{"show m1", 0, "m1           drained    since_day=3    repairs=0 transitions=3 pool=web reason=\"maint\"\n", ""},
		{"show", 2, "", "usage: ceectl show <machine>"},
		{"show m99", 1, "", "404"},
		{"pools", 0, "" +
			"POOL  MACHINES  SERVING  FLOOR  DEFERRED  MIN\n" +
			"web   3         2        2      1         2\n" +
			"\n" +
			"Deferred drains (admission order):\n" +
			"MACHINE  POOL  VERB      SCORE  DAY  REASON\n" +
			"m2       web   draining  4.00   0    maint\n", ""},
		{"repair m5", 1, "", "409"},
		{"repair m1 -day 4", 0, "", ""},
		{"release m1 -day 5 -reason fixed", 0, "", ""},
		// m1 serves again, so the parked drain of m2 was admitted.
		{"show m2", 0, "m2           drained    since_day=5    repairs=0 transitions=3 pool=web reason=\"maint\"\n", ""},
		{"remove m5 -reason recidivist", 0, "m5           removed    since_day=0    repairs=0 transitions=2 reason=\"recidivist\"\n", ""},
		{"stats", 0, "total_reports=0 machines=0 suspects=0\n", ""},
		{"flood -n 3 -machines 2 -batch 4", 0, "flood: sent=3 accepted=3 deferred=0 replaced=0 duplicate=0 shed=0 unreachable=0\n", ""},
		{"flood -n 0", 2, "", "must be positive"},
		{"stats", 0, "total_reports=12 machines=2 suspects=2\n", ""},
		{"readyz", 0, "status=ok wal_enabled=true wal_healthy=true queue_depth=0/0\n", ""},
	}
	for _, st := range steps {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-addr", ts.URL}, strings.Fields(st.args)...), &stdout, &stderr)
		if code != st.wantCode {
			t.Fatalf("ceectl %s: exit %d, want %d\nstdout: %s\nstderr: %s", st.args, code, st.wantCode, stdout.String(), stderr.String())
		}
		if st.wantStdout != "" && stdout.String() != st.wantStdout {
			t.Fatalf("ceectl %s: stdout\n%q\nwant\n%q", st.args, stdout.String(), st.wantStdout)
		}
		if !strings.Contains(stderr.String(), st.wantStderr) {
			t.Fatalf("ceectl %s: stderr %q lacks %q", st.args, stderr.String(), st.wantStderr)
		}
	}
}

// TestRunUnreachableDaemon: a daemon that does not answer is a server
// error (exit 1), not a usage error, and flood counts its batches as
// unreachable, not shed.
func TestRunUnreachableDaemon(t *testing.T) {
	ts := httptest.NewServer(nil)
	url := ts.URL
	ts.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", url, "readyz"}, &stdout, &stderr); code != 1 {
		t.Fatalf("readyz against a closed port: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-addr", url, "flood", "-n", "2"}, &stdout, &stderr); code != 1 {
		t.Fatalf("flood against a closed port: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	const want = "flood: sent=2 accepted=0 deferred=0 replaced=0 duplicate=0 shed=0 unreachable=2\n"
	if stdout.String() != want {
		t.Fatalf("flood against a closed port printed %q, want %q", stdout.String(), want)
	}
}

// TestFloodCountsShedBatches: a server that answers every attempt with
// 429 shed the batch; flood must not call that unreachable.
func TestFloodCountsShedBatches(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", ts.URL, "flood", "-n", "2"}, &stdout, &stderr); code != 1 {
		t.Fatalf("flood against a shedding server: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	const want = "flood: sent=2 accepted=0 deferred=0 replaced=0 duplicate=0 shed=2 unreachable=0\n"
	if stdout.String() != want {
		t.Fatalf("flood against a shedding server printed %q, want %q", stdout.String(), want)
	}
}
