package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lifecycle"
)

func openFile(t *testing.T, fs *FS) lifecycle.File {
	t.Helper()
	f, err := fs.OpenFile(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestFSPassthroughWhenUnarmed(t *testing.T) {
	fs := NewFS(nil)
	f := openFile(t, fs)
	if n, err := f.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(f); err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if fs.Injected() != 0 {
		t.Fatalf("injected = %d, want 0", fs.Injected())
	}
}

func TestFSFaultCountersConsumeExactly(t *testing.T) {
	fs := NewFS(nil)
	f := openFile(t, fs)
	fs.FailWrites(2)
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("write %d: err %v, want injected", i, err)
		}
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write after faults drained: %v", err)
	}

	fs.FailSyncs(1)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: err %v, want injected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	fs.FailTruncates(1)
	if err := f.Truncate(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("truncate: err %v, want injected", err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if fs.Injected() != 4 {
		t.Fatalf("injected = %d, want 4", fs.Injected())
	}
}

func TestFSTornWritePersistsHalf(t *testing.T) {
	fs := NewFS(nil)
	path := filepath.Join(t.TempDir(), "torn")
	f, err := fs.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fs.TornWrites(1)
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v, want injected", err)
	}
	if n != 4 {
		t.Fatalf("n = %d, want half the record (4)", n)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "1234" {
		t.Fatalf("on disk %q, want the torn half %q", data, "1234")
	}
}

func TestFSENOSPCSticky(t *testing.T) {
	fs := NewFS(nil)
	f := openFile(t, fs)
	fs.SetENOSPC(true)
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("write %d: err %v, want injected (sticky)", i, err)
		}
	}
	// Sync and truncate still work on a full disk.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.SetENOSPC(false)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write after clear: %v", err)
	}
}

func TestNetFaultNames(t *testing.T) {
	for _, k := range []NetFault{Drop, Reset, HTTP500, HTTP503, Delay} {
		got, err := NetFaultByName(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, err %v", k, got, err)
		}
	}
	if _, err := NetFaultByName("lightning"); err == nil {
		t.Fatal("unknown fault name must error")
	}
}

func TestTransportQueueFIFO(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	tr := NewTransport(nil)
	client := &http.Client{Transport: tr}
	tr.Inject(Drop, 1)
	tr.Inject(HTTP503, 1)

	// First request consumes the drop: transport-level error, server unseen.
	if _, err := client.Get(srv.URL); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("first request: err %v, want connection dropped", err)
	}
	// Second consumes the synthesized 503 without reaching the server.
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request status = %d, want 503", resp.StatusCode)
	}
	if hits != 0 {
		t.Fatalf("server saw %d requests during faults, want 0", hits)
	}
	// Queue empty: passthrough.
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hits != 1 {
		t.Fatalf("passthrough: status %d hits %d, want 200/1", resp.StatusCode, hits)
	}
	if tr.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", tr.Pending())
	}
	fired := tr.Fired()
	if fired[Drop] != 1 || fired[HTTP503] != 1 {
		t.Fatalf("fired = %v, want one drop and one 503", fired)
	}
}

func TestTransportResetAndBodyDrain(t *testing.T) {
	tr := NewTransport(nil)
	client := &http.Client{Transport: tr}
	tr.Inject(Reset, 1)
	// POST with a body exercises the consume-body path of the contract.
	_, err := client.Post("http://127.0.0.1:0/unreachable", "text/plain", strings.NewReader("payload"))
	if err == nil || !strings.Contains(err.Error(), "reset") {
		t.Fatalf("err %v, want connection reset", err)
	}
}
