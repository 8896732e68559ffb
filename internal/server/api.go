package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/client"
	"repro/internal/obs"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs             submit a job            → 202 JobStatus
//	POST /v1/jobs:batch       submit up to MaxBatch   → 202 BatchResponse
//	GET  /v1/jobs:watch       long-poll for terminals → 200 WatchResponse
//	GET  /v1/jobs/{id}        job status              → 200 JobStatus
//	GET  /v1/jobs/{id}/result finished job's result   → 200 stats.Run
//	GET  /v1/healthz          daemon health           → 200 Health
//	GET  /metrics             Prometheus metrics (when a Registry is set)
//	GET  /metrics.json        the same registry as JSON
//	GET  /debug/pprof/...     net/http/pprof (when EnablePprof is set)
//
// Every error response is JSON: {"error": "..."} with the status code
// carrying the semantics (400 invalid request, 404 unknown job, 409 result
// not ready, 410 job expired, 429 queue full or shedding, 503 draining or
// unhealthy). 429 and 503 carry a Retry-After header sized to the backlog.
// Responses are gzip-compressed when the client advertises support.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", s.handleBatch)
	mux.Handle("GET /v1/jobs:watch", WatchHandler(s))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	if s.cfg.Registry != nil {
		h := obs.Handler(s.cfg.Registry)
		mux.Handle("GET /metrics", h)
		mux.Handle("GET /metrics.json", h)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return Gzip(mux)
}

// writeJSON writes v with a status code; encode failures are unrecoverable
// mid-response and ignored.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	// The X-Sacd-Timeout-Ms header is how a client propagates its context
	// deadline; an explicit timeout_ms in the body wins.
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
	st, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShedding):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterHint()))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining) || errors.Is(err, ErrUnhealthy):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterHint()))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleBatch accepts up to client.MaxBatch jobs in one call. Admission is
// all-or-nothing; per-item validation failures come back as a 400
// BatchResponse whose top-level Error keeps the errorBody shape the client's
// retry loop understands. With ?results=1, terminal done items (every warm
// estimate job) carry their raw result bytes inline, so a warm batch is one
// round trip end to end.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	jobs, results, ok := s.batches.ReadBatch(w, r)
	if !ok {
		return
	}
	sts, itemErrs, err := s.SubmitBatch(jobs, results)
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShedding):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterHint()))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining) || errors.Is(err, ErrUnhealthy):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterHint()))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		WriteBatch(w, sts, itemErrs)
	}
}

// batchErrorResponse renders per-item validation errors ("" = the item was
// fine; it was rejected only because the batch is all-or-nothing).
func batchErrorResponse(itemErrs []string) client.BatchResponse {
	resp := client.BatchResponse{Jobs: make([]client.BatchItem, len(itemErrs))}
	n := 0
	for i, e := range itemErrs {
		if e != "" {
			resp.Jobs[i].Error = e
			n++
		}
	}
	resp.Error = fmt.Sprintf("batch rejected: %d of %d jobs invalid", n, len(itemErrs))
	return resp
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCancel is the steal-cancel endpoint: DELETE /v1/jobs/{id} stops a
// queued or running job and answers with its (possibly already terminal)
// status — cancellation is idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw, st, ok := s.ResultRaw(id)
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
		writeRaw(w, raw)
	default:
		writeError(w, http.StatusConflict, "job %s is %s, result not ready", id, st.State)
	}
}

// writeRaw serves pre-encoded result bytes; the trailing newline keeps the
// body byte-identical to the json.Encoder path this replaced.
func writeRaw(w http.ResponseWriter, raw json.RawMessage) {
	if raw == nil {
		writeError(w, http.StatusInternalServerError, "result bytes unavailable")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
	_, _ = w.Write([]byte{'\n'})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.HealthSnapshot())
}
