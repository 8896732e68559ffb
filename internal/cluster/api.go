package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// Handler returns the coordinator's HTTP API. The jobs surface is the sacd
// API verbatim — submit/status/result/cancel have identical shapes and
// status codes — so client.Client (and therefore sacsweep -remote) works
// against a coordinator without knowing it is one. The workers surface is
// the fleet-membership protocol the worker Agent speaks:
//
//	POST   /v1/jobs                    submit a job              → 202 JobStatus
//	POST   /v1/jobs:batch              submit up to MaxBatch     → 202 BatchResponse
//	GET    /v1/jobs:watch              long-poll for terminals   → 200 WatchResponse
//	GET    /v1/jobs/{id}               job status                → 200 JobStatus
//	DELETE /v1/jobs/{id}               cancel a job              → 200 JobStatus
//	GET    /v1/jobs/{id}/result        finished job's result     → 200 stats.Run
//	POST   /v1/workers                 register a worker         → 200 RegisterResponse
//	POST   /v1/workers/{id}/heartbeat  worker heartbeat          → 204
//	DELETE /v1/workers/{id}            deregister a worker       → 204
//	GET    /v1/fleet                   worker table + counters   → 200 FleetStatus
//	GET    /v1/healthz                 coordinator health        → 200 Health
//	GET    /metrics, /metrics.json     fleet metrics (when a Registry is set)
//
// The watch handler is literally sacd's (server.WatchHandler over the
// coordinator as a server.JobSource), and responses are gzip-compressed for
// clients that advertise support, same as sacd.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", c.handleBatch)
	mux.Handle("GET /v1/jobs:watch", server.WatchHandler(c))
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleDeregister)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	mux.HandleFunc("GET /v1/healthz", c.handleHealth)
	if c.cfg.Registry != nil {
		h := obs.Handler(c.cfg.Registry)
		mux.Handle("GET /metrics", h)
		mux.Handle("GET /metrics.json", h)
	}
	return server.Gzip(mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	// Same deadline propagation as sacd: the client's context deadline rides
	// the X-Sacd-Timeout-Ms header; an explicit body timeout_ms wins.
	if req.TimeoutMS == 0 {
		if v := r.Header.Get(client.TimeoutHeader); v != "" {
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ms <= 0 {
				writeError(w, http.StatusBadRequest, "invalid %s header %q", client.TimeoutHeader, v)
				return
			}
			req.TimeoutMS = ms
		}
	}
	st, err := c.Submit(req)
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleBatch fans a batch out by ring placement in one pass (duplicates
// join flights, unique keys dispatch). Same wire shape as sacd's.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	jobs, results, ok := c.batches.ReadBatch(w, r)
	if !ok {
		return
	}
	sts, itemErrs, err := c.SubmitBatch(jobs, results)
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		server.WriteBatch(w, sts, itemErrs)
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw, st, ok := c.ResultRaw(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch st.State {
	case client.StateFailed:
		writeError(w, http.StatusInternalServerError, "job %s failed: %s", id, st.Error)
	case client.StateExpired:
		writeError(w, http.StatusGone, "job %s expired: %s", id, st.Error)
	case client.StateCanceled:
		writeError(w, http.StatusGone, "job %s canceled: %s", id, st.Error)
	case client.StateDone:
		if raw == nil {
			writeError(w, http.StatusInternalServerError, "result bytes unavailable")
			return
		}
		// Relay the worker's bytes untouched (plus the newline the JSON
		// encoder this replaced used to emit).
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(raw)
		_, _ = w.Write([]byte{'\n'})
	default:
		writeError(w, http.StatusConflict, "job %s is %s, result not ready", id, st.State)
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var info client.WorkerInfo
	if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	resp, err := c.Register(info)
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var h client.Health
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if !c.Heartbeat(id, h) {
		writeError(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !c.Deregister(id) {
		writeError(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Fleet())
}

// handleHealth reports the coordinator's own health: healthy with live
// workers, degraded with none (jobs queue up in the wait-for-worker loop
// rather than failing, so an empty fleet is survivable, not fatal).
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	fs := c.Fleet()
	h := client.Health{Status: client.HealthHealthy, Workers: fs.Live, Jobs: fs.Jobs}
	if fs.Live == 0 {
		h.Status = client.HealthDegraded
		h.Reasons = []string{"no live workers"}
	}
	for _, ws := range fs.Workers {
		h.Inflight += ws.Inflight
	}
	writeJSON(w, http.StatusOK, h)
}
