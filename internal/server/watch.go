// Long-poll job watching, shared by the sacd daemon and the saccoord
// coordinator (both satisfy JobSource): GET /v1/jobs:watch parks one request
// on the terminal-state channels of up to client.MaxBatch jobs and returns
// the moment any of them lands, replacing per-job interval polling — an idle
// sweep holds one open request instead of issuing O(jobs × poll-rate).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/client"
)

// Watch timeout bounds. A request naming no timeout_ms long-polls for
// DefaultWatchTimeout; requests beyond MaxWatchTimeout are clamped so an
// abandoned connection cannot pin goroutines for hours.
const (
	DefaultWatchTimeout = 30 * time.Second
	MaxWatchTimeout     = 5 * time.Minute
)

// JobSource is the surface the watch endpoint needs from a job-tracking
// server: a status snapshot, the closed-on-terminal channel, and the raw
// wire-form result for ?results=1. Both *server.Server and the cluster
// coordinator implement it, so sacd and saccoord mount the same handler.
type JobSource interface {
	Status(id string) (client.JobStatus, bool)
	DoneChan(id string) (<-chan struct{}, bool)
	ResultRaw(id string) (json.RawMessage, client.JobStatus, bool)
}

// WatchHandler serves GET /v1/jobs:watch over src.
func WatchHandler(src JobSource) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ids, timeout, results, err := ParseWatch(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp, werr := WatchJobs(r.Context(), src, ids, timeout, results)
		if werr != nil {
			// Only ctx cancellation errors out: the client is gone, there is
			// no one left to answer.
			return
		}
		writeWatch(w, resp)
	}
}

// ParseWatch extracts a jobs:watch request's parameters: the id list
// (comma-separated ids= values), the long-poll timeout, and whether terminal
// statuses should carry their results inline (results=1).
func ParseWatch(r *http.Request) (ids []string, timeout time.Duration, results bool, err error) {
	q := r.URL.Query()
	for _, v := range q["ids"] {
		for _, id := range strings.Split(v, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return nil, 0, false, fmt.Errorf("missing ids parameter")
	}
	if len(ids) > client.MaxBatch {
		return nil, 0, false, fmt.Errorf("watching %d jobs exceeds the limit of %d", len(ids), client.MaxBatch)
	}
	timeout = DefaultWatchTimeout
	if v := q.Get("timeout_ms"); v != "" {
		ms, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || ms < 0 {
			return nil, 0, false, fmt.Errorf("bad timeout_ms %q", v)
		}
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > MaxWatchTimeout {
			timeout = MaxWatchTimeout
		}
	}
	results = q.Get("results") == "1" || q.Get("results") == "true"
	return ids, timeout, results, nil
}

// WatchJobs blocks until at least one of ids reaches a terminal state, the
// timeout passes, or ctx is canceled (a closed client connection), then
// returns every terminal status among ids plus the ids src does not know. A
// first scan answers immediately when any watched job is already terminal or
// unknown; an id can also turn unknown mid-wait (retention GC), which the
// post-wake re-scan reports rather than silently dropping. Ctx cancellation
// is an error; a bare timeout is a 200 with an empty Jobs list, so clients
// can re-arm without special-casing. With results, done statuses carry their
// raw result bytes (the ?results=1 path), read in the same lookup as the
// status, so one response needs no follow-up result fetches.
func WatchJobs(ctx context.Context, src JobSource, ids []string, timeout time.Duration, results bool) (client.WatchResponse, error) {
	seen := make(map[string]bool, len(ids))
	uniq := ids[:0:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}

	status := src.Status
	if results {
		status = func(id string) (client.JobStatus, bool) {
			raw, st, ok := src.ResultRaw(id)
			if st.State == client.StateDone {
				st.Result = raw
			}
			return st, ok
		}
	}
	scan := func() (resp client.WatchResponse, pending []string) {
		for _, id := range uniq {
			st, ok := status(id)
			switch {
			case !ok:
				resp.Unknown = append(resp.Unknown, id)
			case st.Done():
				resp.Jobs = append(resp.Jobs, st)
			default:
				pending = append(pending, id)
			}
		}
		return resp, pending
	}

	resp, pending := scan()
	if len(resp.Jobs) > 0 || len(resp.Unknown) > 0 || len(pending) == 0 {
		return resp, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One parked goroutine per pending job; all exit via wctx when the first
	// fires (the buffered channel absorbs one racing winner, the non-blocking
	// send drops the rest).
	fired := make(chan struct{}, 1)
	for _, id := range pending {
		ch, ok := src.DoneChan(id)
		if !ok {
			// Vanished between scan and here (GC): wake immediately, the
			// re-scan below reports it as unknown.
			select {
			case fired <- struct{}{}:
			default:
			}
			continue
		}
		go func(ch <-chan struct{}) {
			select {
			case <-ch:
				select {
				case fired <- struct{}{}:
				default:
				}
			case <-wctx.Done():
			}
		}(ch)
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-fired:
	case <-timer.C:
		// Timeout: answer with whatever the final scan finds (usually
		// nothing — the empty response tells the client to re-arm).
	case <-ctx.Done():
		return client.WatchResponse{}, ctx.Err()
	}
	resp, _ = scan()
	return resp, nil
}
