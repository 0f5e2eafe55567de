package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lifecycle"
)

// ingestState renders everything a refused ingest request must leave
// alone: the report total, the nominations and the dedup window (fmt
// prints maps in key order).
func ingestState(s *Server) string {
	s.dedup.mu.Lock()
	defer s.dedup.mu.Unlock()
	windows := map[string]sourceWindow{}
	for src, w := range s.dedup.sources {
		windows[src] = *w
	}
	return fmt.Sprint(s.TotalReports(), s.Suspects(), windows)
}

// FuzzReports drives raw bodies at /v1/report and /v1/reports through
// the handler. Every answer is 2xx or 4xx; a 4xx changes nothing; a 2xx
// ingests exactly what it acknowledged; and no suspect names a core the
// machine does not have.
func FuzzReports(f *testing.F) {
	for _, body := range []string{
		`{"machine":"m1","core":1,"kind":"crash","time_sec":2}`,
		`{"machine":"m1","core":1} trailing`,
		`{"machine":"m1","core":1}{"machine":"m2","core":2}`,
		`{"machine":"m1","core":1}]`,
		`{"machine":"m1","core":9999,"kind":"crash"}`,
		`{"machine":"m1","core":-2}`,
		`{"reports":[{"machine":"m2","core":3},{"machine":"m2","core":64}]}`,
		`{"source":"seed","seq":1,"reports":[{"machine":"m0","core":1}]}`,
		`{"source":"s","seq":2,"reports":[{"machine":"m0","core":1,"kind":"mce"},{"machine":"m3","core":-1}]}`,
		`{"reports":[]}`,
		`{nope`,
		"",
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	const cores = 8
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		srv := NewServer(cores)
		h := srv.Handler()
		// Start from a nomination and a non-empty dedup window.
		seed := makeBatch("seed", 1, "m0", 8)
		for i := range seed.Reports {
			seed.Reports[i].Core = 1
		}
		seedBody, _ := json.Marshal(seed)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/reports", bytes.NewReader(seedBody)))

		route := "/v1/report"
		if batch {
			route = "/v1/reports"
		}
		before, total := ingestState(srv), srv.TotalReports()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		switch {
		case rec.Code/100 == 4:
			if after := ingestState(srv); after != before {
				t.Fatalf("%d on %s changed state:\nbefore %s\nafter  %s", rec.Code, route, before, after)
			}
		case rec.Code == http.StatusAccepted && !batch:
			if got := srv.TotalReports(); got != total+1 {
				t.Fatalf("202 on /v1/report: total %d -> %d", total, got)
			}
		case rec.Code/100 == 2 && batch:
			var ack BatchAck
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("%d ack %q: %v", rec.Code, rec.Body.Bytes(), err)
			}
			if got := srv.TotalReports(); got != total+ack.Accepted {
				t.Fatalf("ack %+v: total %d -> %d", ack, total, got)
			}
		default:
			t.Fatalf("%s answered %d: %s", route, rec.Code, rec.Body.Bytes())
		}
		for _, s := range srv.Suspects() {
			if s.Core < 0 || s.Core >= cores {
				t.Fatalf("suspect %+v outside [0, %d)", s, cores)
			}
		}
	})
}

// FuzzAdminVerb drives POST /v1/machines/{id}/{verb} over a WAL-backed
// lifecycle with a pool at its floor. Every answer is 2xx or 4xx, and a
// 4xx appends no WAL record and leaves the machine's record alone.
func FuzzAdminVerb(f *testing.F) {
	for _, c := range []struct{ id, verb, body string }{
		{"m2", "cordon", `{"reason":"a"}`},
		{"m2", "cordon", `{"reason":"a"} garbage`},
		{"m2", "cordon", `{"reason":"a"}{"reason":"b"}`},
		{"m2", "cordon", `{"reason":"` + strings.Repeat("x", 70<<10) + `"}`},
		{"m1", "drain", ""},
		{"m2", "drain", `{"score":4}`},
		{"m1", "repair", `{"day":3}`},
		{"m1", "release", `{"reason":"repaired"}`},
		{"m4", "assign", `{}`},
		{"m4", "assign", `{"pool":"web"}`},
		{"m3", "remove", `[]`},
		{"m3", "explode", ""},
	} {
		f.Add(c.id, c.verb, []byte(c.body))
	}
	wal, _, _, err := lifecycle.OpenWAL(filepath.Join(f.TempDir(), "fuzz.wal"))
	if err != nil {
		f.Fatal(err)
	}
	mgr := lifecycle.NewManager(lifecycle.Options{WAL: wal})
	f.Cleanup(func() { mgr.Close() })
	mgr.DefinePool(lifecycle.PoolConfig{Name: "web", MinHealthyCount: 2})
	for _, id := range []string{"m1", "m2", "m3"} {
		if err := mgr.AssignPool(id, "web"); err != nil {
			f.Fatal(err)
		}
	}
	srv := NewServer(16)
	srv.SetLifecycle(mgr)
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, id, verb string, body []byte) {
		target := "/v1/machines/" + url.PathEscape(id) + "/" + url.PathEscape(verb)
		if path.Clean(target) != target {
			t.Skip("the mux redirects unclean paths before routing")
		}
		seq := wal.Seq()
		recBefore, _ := mgr.State(id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		switch rec.Code / 100 {
		case 2:
		case 4:
			if got := wal.Seq(); got != seq {
				t.Fatalf("%d on %s appended WAL records %d..%d: %s", rec.Code, target, seq+1, got, rec.Body.Bytes())
			}
			if recAfter, _ := mgr.State(id); !reflect.DeepEqual(recAfter, recBefore) {
				t.Fatalf("%d on %s changed %+v to %+v", rec.Code, target, recBefore, recAfter)
			}
		default:
			t.Fatalf("%s answered %d: %s", target, rec.Code, rec.Body.Bytes())
		}
	})
}
