package cluster

// Tests for the coordinator's batch serving path: jobs:batch fan-out by
// ring placement, jobs:watch collection, and byte-identity of batched
// remote results against in-process simulation.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestClusterBatchDedup submits one batch holding each cell twice: the
// coordinator must collapse duplicates onto one flight per key (one member
// simulates, its twin joins), and both members must return the same bytes.
func TestClusterBatchDedup(t *testing.T) {
	coord, hs := testCoordinator(t, nil)
	startWorker(t, hs.URL, "worker-a")
	startWorker(t, hs.URL, "worker-b")
	waitLive(t, coord, 2)
	cc := newClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cells := []client.JobRequest{
		tinyRequest("BP", "SAC", 0),
		tinyRequest("RN", "memory-side", 0),
	}
	var batch []client.JobRequest
	for _, cell := range cells {
		batch = append(batch, cell, cell)
	}
	sts, err := cc.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != len(batch) {
		t.Fatalf("got %d statuses, want %d", len(sts), len(batch))
	}
	ids := make([]string, len(sts))
	for i, st := range sts {
		ids[i] = st.ID
	}
	final, err := cc.WaitAll(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		st := final[id]
		if st.State != client.StateDone {
			t.Fatalf("job %d finished %s: %s", i, st.State, st.Error)
		}
		if raws[i], err = cc.ResultRaw(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// Per duplicate pair: identical bytes, and only one member led a flight.
	for p := 0; p < len(cells); p++ {
		a, b := 2*p, 2*p+1
		if !bytes.Equal(raws[a], raws[b]) {
			t.Errorf("pair %d: duplicate results differ", p)
		}
		srcA, srcB := final[ids[a]].Source, final[ids[b]].Source
		joins := 0
		for _, src := range []string{srcA, srcB} {
			if src == client.SourceDedup || src == client.SourceMemo {
				joins++
			}
		}
		if joins != 1 {
			t.Errorf("pair %d: sources %q/%q, want exactly one dedup/memo join", p, srcA, srcB)
		}
	}
}

// TestRemoteByteIdentity pins the promise sacsweep -remote rests on, over
// the batch path it now uses: cells shipped through a client.Batcher against
// a fleet come back byte-identical to in-process simulation — and duplicate
// concurrent cells still match even though they dedup onto one flight.
func TestRemoteByteIdentity(t *testing.T) {
	coord, hs := testCoordinator(t, nil)
	startWorker(t, hs.URL, "worker-a")
	startWorker(t, hs.URL, "worker-b")
	waitLive(t, coord, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cells := []client.JobRequest{
		tinyRequest("BP", "SAC", 0),
		tinyRequest("RN", "memory-side", 0),
		tinyRequest("BP", "SAC", 600),
		tinyRequest("BP", "SAC", 0), // duplicate: joins the first cell's flight
	}
	local := make([][]byte, len(cells))
	for i, req := range cells {
		spec, err := workload.ByName(req.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		cfg := *req.Config
		org, err := llc.ParseOrg(req.Org)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Org = org
		res, err := backend.Run(cfg, spec, gpu.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if local[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	// All cells concurrently through one Batcher, so they coalesce into a
	// single jobs:batch submission collected by one shared watch.
	b := client.NewBatcher(newClient(hs.URL), 0, 20*time.Millisecond)
	remote := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, req := range cells {
		wg.Add(1)
		go func(i int, req client.JobRequest) {
			defer wg.Done()
			res, err := b.Run(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			remote[i], errs[i] = json.Marshal(res)
		}(i, req)
	}
	wg.Wait()
	for i := range cells {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		if !bytes.Equal(remote[i], local[i]) {
			t.Fatalf("cell %d (%s/%s scale=%d): remote result differs from in-process:\nremote %s\nlocal  %s",
				i, cells[i].Benchmark, cells[i].Org, cells[i].Config.WorkloadScale, remote[i], local[i])
		}
	}
}

// sameAsEncodingJSON requires body to be byte-identical to what
// json.NewEncoder writes for the value it decodes to.
func sameAsEncodingJSON[T any](t *testing.T, what string, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: decoding %s: %v", what, body, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("%s body differs from encoding/json\n got %s\nwant %s", what, body, want.Bytes())
	}
	return v
}

// TestCoordinatorBodiesMatchEncodingJSON drives the coordinator's real
// handler and requires its spliced batch and watch bodies — running jobs,
// memo recalls carrying relayed results, a failure whose message needs
// escaping, deadlines, unknown ids — to be byte-identical to encoding/json.
func TestCoordinatorBodiesMatchEncodingJSON(t *testing.T) {
	coord, hs := testCoordinator(t, nil)
	startWorker(t, hs.URL, "worker-a")
	waitLive(t, coord, 1)

	var cells []client.JobRequest
	for _, b := range []string{"BP", "RN", "SN"} {
		r := tinyRequest(b, "SAC", 0)
		r.Fidelity = client.FidelityEstimate
		cells = append(cells, r)
	}
	// A cell whose flight already failed: its jobs recall the failure.
	poisoned := tinyRequest("AN", "SAC", 640)
	poisoned.Fidelity = client.FidelityEstimate
	rj, err := server.ResolveRequest(poisoned, "")
	if err != nil {
		t.Fatal(err)
	}
	failed := &cflight{done: make(chan struct{}), err: errors.New(`worker w: bad <&> "cell"`)}
	close(failed.done)
	coord.mu.Lock()
	coord.flights[rj.Key] = failed
	coord.mu.Unlock()

	post := func(reqs []client.JobRequest) client.BatchResponse {
		t.Helper()
		b, _ := json.Marshal(client.BatchRequest{Jobs: reqs})
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs:batch?results=1", bytes.NewReader(b))
		req.Header.Set(client.TimeoutHeader, "60000")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, body)
		}
		return sameAsEncodingJSON[client.BatchResponse](t, "batch", body)
	}
	var ids []string
	for _, it := range post(cells).Jobs {
		ids = append(ids, it.Status.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := newClient(hs.URL).WaitAll(ctx, ids); err != nil {
		t.Fatal(err)
	}
	// A leader's job settles just before its flight closes; wait for the
	// flights too, so the repeats below are memo recalls.
	for settled := false; !settled; {
		if ctx.Err() != nil {
			t.Fatal("flights never completed")
		}
		settled = true
		coord.mu.Lock()
		for _, f := range coord.flights {
			settled = settled && isDone(f)
		}
		coord.mu.Unlock()
		time.Sleep(time.Millisecond)
	}

	again := post(append(cells, poisoned))
	for i, it := range again.Jobs {
		ids = append(ids, it.Status.ID)
		switch {
		case i == len(cells):
			if it.Status.State != client.StateFailed || !strings.Contains(it.Status.Error, `<&> "cell"`) {
				t.Fatalf("poisoned cell: %s %q", it.Status.State, it.Status.Error)
			}
		case it.Status.State != client.StateDone || it.Status.Source != client.SourceMemo || len(it.Status.Result) == 0:
			t.Fatalf("repeated cell %d: %s from %q with %d result bytes", i, it.Status.State, it.Status.Source, len(it.Status.Result))
		}
	}

	q := url.Values{"ids": {strings.Join(append(ids, "<&>"), ",")}, "results": {"1"}, "timeout_ms": {"5000"}}
	resp, err := http.Get(hs.URL + "/v1/jobs:watch?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	wr := sameAsEncodingJSON[client.WatchResponse](t, "watch", body)
	if len(wr.Jobs) != len(ids) || len(wr.Unknown) != 1 {
		t.Fatalf("watch returned %d jobs and unknown %v, want %d and [<&>]", len(wr.Jobs), wr.Unknown, len(ids))
	}
}
