package report

// Machine-lifecycle admin API. When SetLifecycle attaches a manager, the
// server exposes the fleet's machine ledger and the operator verbs —
// cordon, drain, repair, release, remove — under /v1/machines. Every
// verb funnels through the lifecycle state machine, so an operator can
// never drive a machine into an illegal state through the API: bad
// transitions come back as 409 with the state machine's own explanation,
// and every accepted one is WAL-durable before the response is written.

import (
	"errors"
	"net/http"

	"repro/internal/lifecycle"
)

// MachineJSON is the wire form of one lifecycle record.
type MachineJSON struct {
	Machine      string `json:"machine"`
	State        string `json:"state"`
	Pool         string `json:"pool,omitempty"`
	SinceDay     int    `json:"since_day"`
	RepairCycles int    `json:"repair_cycles"`
	Transitions  int    `json:"transitions"`
	LastReason   string `json:"last_reason,omitempty"`
	// Deferred is set on a 202 answer: the verb was accepted but queued
	// behind the pool's capacity floor rather than applied.
	Deferred bool `json:"deferred,omitempty"`
}

// ActionRequest is the optional body for POST /v1/machines/{id}/{verb}.
type ActionRequest struct {
	Reason string `json:"reason,omitempty"`
	Actor  string `json:"actor,omitempty"`
	Day    int    `json:"day,omitempty"`
	// Pool names the target pool for the assign verb.
	Pool string `json:"pool,omitempty"`
	// Score orders a deferred drain in the admission queue (higher first).
	Score float64 `json:"score,omitempty"`
}

// PoolsJSON is the GET /v1/pools response body: per-pool capacity
// accounting plus the deferred-drain queue in admission order.
type PoolsJSON struct {
	Pools    []lifecycle.PoolStatus    `json:"pools"`
	Deferred []lifecycle.DeferredDrain `json:"deferred"`
}

// SetLifecycle attaches the machine-lifecycle control plane, enabling
// the /v1/machines admin API. Call before Handler.
func (s *Server) SetLifecycle(m *lifecycle.Manager) { s.life = m }

func machineJSON(r lifecycle.Record) MachineJSON {
	return MachineJSON{
		Machine:      r.Machine,
		State:        r.State.String(),
		Pool:         r.Pool,
		SinceDay:     r.SinceDay,
		RepairCycles: r.RepairCycles,
		Transitions:  r.Transitions,
		LastReason:   r.LastReason,
	}
}

// handleMachineList is GET /v1/machines[?state=cordoned][&pool=web]: the
// full ledger, sorted by machine id, optionally filtered by state and
// pool membership.
func (s *Server) handleMachineList(w http.ResponseWriter, r *http.Request) {
	want := r.URL.Query().Get("state")
	if want != "" {
		if _, err := lifecycle.StateByName(want); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	pool := r.URL.Query().Get("pool")
	out := []MachineJSON{}
	for _, rec := range s.life.List() {
		if want != "" && rec.State.String() != want {
			continue
		}
		if pool != "" && rec.Pool != pool {
			continue
		}
		out = append(out, machineJSON(rec))
	}
	writeJSONStatus(w, http.StatusOK, out)
}

// handlePools is GET /v1/pools: capacity accounting per pool and the
// deferred-drain queue in admission order.
func (s *Server) handlePools(w http.ResponseWriter, r *http.Request) {
	writeJSONStatus(w, http.StatusOK, PoolsJSON{
		Pools:    s.life.Pools(),
		Deferred: s.life.DeferredDrains(),
	})
}

func (s *Server) handleMachineGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.life.State(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "machine %q has no lifecycle record", r.PathValue("id"))
		return
	}
	writeJSONStatus(w, http.StatusOK, machineJSON(rec))
}

// handleMachineVerb is POST /v1/machines/{id}/{verb} with an optional
// ActionRequest body. Verbs: cordon, drain, repair, release, remove.
func (s *Server) handleMachineVerb(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	verb := r.PathValue("verb")
	var req ActionRequest
	if decodeBody(w, r, maxReportBytes, "action", &req, true) != "" {
		return
	}
	if req.Actor == "" {
		req.Actor = "admin-api"
	}
	var err error
	switch verb {
	case "cordon":
		_, err = s.life.CordonScored(id, req.Day, req.Reason, req.Actor, req.Score)
	case "drain":
		// The daemon has no workload scheduler to wait on, so a drain
		// completes immediately: cordon+draining, then drained.
		var st lifecycle.State
		st, err = s.life.DrainScored(id, req.Day, req.Reason, req.Actor, req.Score)
		if err == nil && st == lifecycle.Draining {
			_, err = s.life.MarkDrained(id, req.Day, req.Actor)
		}
	case "repair":
		_, err = s.life.StartRepair(id, req.Day, req.Actor)
	case "release":
		_, err = s.life.Reintroduce(id, req.Day, req.Reason, req.Actor)
	case "remove":
		_, err = s.life.Remove(id, req.Day, req.Reason, req.Actor)
		if err == nil {
			// A removed machine never reports again: drop its tracker
			// state so the daemon's memory stays bounded by the live fleet.
			s.tracker.Forget(id)
		}
	case "assign":
		if req.Pool == "" {
			writeError(w, http.StatusBadRequest, "assign requires a pool")
			return
		}
		err = s.life.AssignPool(id, req.Pool)
	default:
		writeError(w, http.StatusNotFound, "unknown verb %q", verb)
		return
	}
	// ErrDeferred means the verb was accepted but queued: applying it now
	// would drop the pool below its capacity floor. The intent is
	// WAL-durable and admits itself as repaired capacity returns.
	deferred := errors.Is(err, lifecycle.ErrDeferred)
	if err != nil && !deferred {
		// The state machine rejected the transition; the ledger is
		// unchanged. Conflict, not client error — the request was well
		// formed, the machine just isn't in a state that allows it.
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	rec, _ := s.life.State(id)
	mj := machineJSON(rec)
	mj.Deferred = deferred
	status := http.StatusOK
	if deferred {
		status = http.StatusAccepted
	}
	writeJSONStatus(w, status, mj)
}
