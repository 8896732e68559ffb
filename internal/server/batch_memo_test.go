package server

// Tests for the shared batch codec: the request memo behind jobs:batch
// decoding, and the response encoder that splices raw results into batch
// and watch bodies instead of re-encoding them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/stats"
)

// sameBatchJobs reports how two decodes of one body differ ("" = equal).
func sameBatchJobs(a, b []BatchJob, aErr, bErr error) string {
	if fmt.Sprint(aErr) != fmt.Sprint(bErr) {
		return fmt.Sprintf("body error %v vs %v", aErr, bErr)
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d items vs %d", len(a), len(b))
	}
	for i := range a {
		switch {
		case !reflect.DeepEqual(a[i].Req, b[i].Req):
			return fmt.Sprintf("item %d: request %+v vs %+v", i, a[i].Req, b[i].Req)
		case !reflect.DeepEqual(a[i].Job, b[i].Job):
			return fmt.Sprintf("item %d: resolution differs", i)
		case fmt.Sprint(a[i].Err) != fmt.Sprint(b[i].Err):
			return fmt.Sprintf("item %d: error %v vs %v", i, a[i].Err, b[i].Err)
		}
	}
	return ""
}

// checkDecodeBatch decodes body twice through one memo (the second pass
// hits on every item the first resolved) and once through the reference
// whole-body decoder, and requires all three to agree.
func checkDecodeBatch(t *testing.T, body []byte) {
	t.Helper()
	m := NewRequestMemo("")
	first, firstErr := m.DecodeBatch(bytes.NewReader(body))
	again, againErr := m.DecodeBatch(bytes.NewReader(body))
	ref, refErr := m.decodeSlow(body)
	if d := sameBatchJobs(first, ref, firstErr, refErr); d != "" {
		t.Fatalf("decode differs from the reference decoder: %s\nbody %q", d, body)
	}
	if d := sameBatchJobs(again, ref, againErr, refErr); d != "" {
		t.Fatalf("memo hit differs from the reference decoder: %s\nbody %q", d, body)
	}
}

// batchSeeds are bodies covering the codec's paths: valid, invalid items,
// shapes only the reference decoder handles, and malformed JSON.
func batchSeeds() []string {
	est, _ := json.Marshal(tinyRequest("RN", "SAC"))
	return []string{
		`{"jobs":[` + string(est) + `,` + string(est) + `]}`,
		`{"jobs":[{"benchmark":"BP","org":"SAC","fidelity":"estimate","priority":"high","timeout_ms":5}]}`,
		`{"jobs":[{"benchmark":"BP","org":"SAC","faults":"x"},{"benchmark":"nope","org":"SAC"}]}`,
		`{"jobs":[{"benchmark":"BP","org":"SAC","fidelity":"estimate","faults":"ring:0-1@100"}]}`,
		`{"JOBS":[{"Benchmark":"BP","ORG":"SAC"}] , "extra":{"jobs":[1]}}`,
		`{"jobs":[{"benchmark":"BP","org":"SAC"}],"jobs":[{"org":"SAC"}]}`,
		`{"jobs":[{"benchmark":"BP","org":"SAC"}]} trailing`,
		`{"jobs":[{"benchmark":5}]}`,
		`{"jobs":[{"benchmark":"B\"P,]}","org":"SAC"}, null , {}]}`,
		`{"jobs":[]}`, `{"jobs":null}`, `{"jobs":{}}`, `{"jobs":"x"}`, `null`, `[]`, ``,
		`{"jobs":[{"timeout_ms":-1,"benchmark":"BP","org":"SAC"}]}`,
		`{"jobs":[{"benchmark":"BP","org":"SAC","config":{"Chips":0}}]}`,
		`{"jobs":[{"benchmark":"BP"`,
	}
}

func TestDecodeBatchMatchesReference(t *testing.T) {
	for _, body := range batchSeeds() {
		checkDecodeBatch(t, []byte(body))
	}
}

// FuzzDecodeBatch fuzzes the jobs:batch body parser: it must never panic,
// and for any body a decode, a memo hit on the same bytes, and the
// reference whole-body decode-then-resolve must return the same requests,
// resolutions and errors.
func FuzzDecodeBatch(f *testing.F) {
	for _, body := range batchSeeds() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeBatch(t, body)
	})
}

// TestRequestMemoBounded checks that the memo keeps at most two
// generations and that a fill drops the older one, not the live entries.
func TestRequestMemoBounded(t *testing.T) {
	m := NewRequestMemo("")
	body := func(scale int) []byte {
		req := tinyRequest("BP", "SAC")
		req.Config.WorkloadScale = scale
		b, _ := json.Marshal(client.BatchRequest{Jobs: []client.JobRequest{req}})
		return b
	}
	for i := 0; i < 3*requestMemoCap; i++ {
		jobs, err := m.DecodeBatch(bytes.NewReader(body(256 + i)))
		if err != nil || jobs[0].Err != nil {
			t.Fatalf("cell %d: %v / %v", i, err, jobs[0].Err)
		}
	}
	m.mu.Lock()
	n := len(m.cur) + len(m.prev)
	m.mu.Unlock()
	if n > 2*requestMemoCap {
		t.Fatalf("memo holds %d requests, want at most %d", n, 2*requestMemoCap)
	}
	// The newest cell is still resolved by lookup: no new entry appears.
	m.DecodeBatch(bytes.NewReader(body(256 + 3*requestMemoCap - 1)))
	m.mu.Lock()
	defer m.mu.Unlock()
	if n2 := len(m.cur) + len(m.prev); n2 != n {
		t.Fatalf("memo grew from %d to %d on a repeated cell", n, n2)
	}
}

// reencode decodes body into v's type and encodes it back the way the
// handlers did before splicing: json.NewEncoder(w).Encode.
func reencode[T any](t *testing.T, body []byte) []byte {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fullStatuses returns statuses setting every optional JobStatus field,
// with strings encoding/json escapes.
func fullStatuses(t *testing.T) []client.JobStatus {
	t.Helper()
	raw, err := json.Marshal(&stats.Run{Benchmark: `<a&b> "q"`, Org: "SAC", Cycles: 42})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 600, time.FixedZone("x", 3600))
	later := at.Add(time.Second)
	return []client.JobStatus{
		{ID: "j1", State: client.StateDone, Benchmark: "BP", Org: "SAC", Priority: "normal", Fidelity: "estimate",
			Key: "k<1>", Source: client.SourceStore, Cycles: 42, SubmittedAt: at, StartedAt: &at, FinishedAt: &later,
			DeadlineAt: &later, Result: raw},
		{ID: "j2", State: client.StateFailed, Benchmark: "RN", Org: "memory-side", Priority: "batch", Fidelity: "exact",
			Error: "panic: <&> \"boom\" ", SubmittedAt: at, FinishedAt: &later},
		{ID: "j3", State: client.StateQueued, Benchmark: "SN", Org: "SM-side", Priority: "high", Fidelity: "sampled",
			QueueAhead: 7, SubmittedAt: at},
	}
}

// TestSplicedBodiesMatchEncodingJSON pins the splice against encoding/json
// on statuses covering every optional field.
func TestSplicedBodiesMatchEncodingJSON(t *testing.T) {
	sts := fullStatuses(t)
	want := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	rec := httptest.NewRecorder()
	WriteBatch(rec, sts, nil)
	resp := client.BatchResponse{Jobs: make([]client.BatchItem, len(sts))}
	for i := range sts {
		resp.Jobs[i].Status = &sts[i]
	}
	if got, w := rec.Body.Bytes(), want(resp); !bytes.Equal(got, w) {
		t.Fatalf("batch body\n got %s\nwant %s", got, w)
	}
	if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("batch answered %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}

	for _, wr := range []client.WatchResponse{
		{Jobs: sts, Unknown: []string{"<&>", "j9"}},
		{Jobs: sts[:1]},
		{Jobs: []client.JobStatus{}},
		{Unknown: []string{"gone"}},
		{},
	} {
		rec := httptest.NewRecorder()
		writeWatch(rec, wr)
		if got, w := rec.Body.Bytes(), want(wr); !bytes.Equal(got, w) {
			t.Fatalf("watch body\n got %s\nwant %s", got, w)
		}
	}
}

// TestServedBatchAndWatchBodiesMatchEncodingJSON drives sacd's real handler
// and requires every batch and watch body it serves — done statuses with
// results, a failed one whose error needs escaping, queued and running ones
// with deadlines — to be byte-identical to encoding/json's encoding.
func TestServedBatchAndWatchBodiesMatchEncodingJSON(t *testing.T) {
	var panicked, blocking atomic.Bool
	gate := make(chan struct{})
	st := openTestStore(t, t.TempDir())
	s := New(Config{Workers: 1, Store: st, Chaos: Chaos{BeforeRun: func(string) {
		if panicked.CompareAndSwap(false, true) {
			panic(`bad <&> "cell"`)
		}
		if blocking.Load() {
			<-gate
		}
	}}})
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		close(gate)
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})

	post := func(reqs []client.JobRequest) ([]byte, client.BatchResponse) {
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
		if got, want := body, reencode[client.BatchResponse](t, body); !bytes.Equal(got, want) {
			t.Fatalf("batch body differs from encoding/json\n got %s\nwant %s", got, want)
		}
		var br client.BatchResponse
		_ = json.Unmarshal(body, &br)
		return body, br
	}

	var estimates []client.JobRequest
	for _, b := range []string{"RN", "BP", "SN", "RN"} {
		r := tinyRequest(b, "SAC")
		r.Fidelity = client.FidelityEstimate
		estimates = append(estimates, r)
	}
	_, first := post(estimates)
	var ids []string
	failed := 0
	for _, it := range first.Jobs {
		ids = append(ids, it.Status.ID)
		if it.Status.State == client.StateFailed {
			failed++
			if !strings.Contains(it.Status.Error, `<&> "cell"`) {
				t.Errorf("failed item error %q lost its text", it.Status.Error)
			}
		} else if it.Status.State != client.StateDone || len(it.Status.Result) == 0 {
			t.Errorf("estimate item %s: %s with %d result bytes", it.Status.ID, it.Status.State, len(it.Status.Result))
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed items, want the one poisoned run", failed)
	}
	_, again := post(estimates) // every item a hit now

	blocking.Store(true)
	var exact []client.JobRequest
	for _, b := range []string{"BP", "RN", "SN"} {
		exact = append(exact, tinyRequest(b, "memory-side"))
	}
	_, queued := post(exact)

	ids = append(ids, again.Jobs[0].Status.ID, queued.Jobs[2].Status.ID, "<&>")
	q := url.Values{"ids": {strings.Join(ids, ",")}, "results": {"1"}, "timeout_ms": {"5000"}}
	resp, err := http.Get(hs.URL + "/v1/jobs:watch?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if got, want := body, reencode[client.WatchResponse](t, body); !bytes.Equal(got, want) {
		t.Fatalf("watch body differs from encoding/json\n got %s\nwant %s", got, want)
	}
	var wr client.WatchResponse
	_ = json.Unmarshal(body, &wr)
	if len(wr.Jobs) != len(estimates)+1 || len(wr.Unknown) != 1 {
		t.Fatalf("watch returned %d jobs and unknown %v, want %d and [<&>]", len(wr.Jobs), wr.Unknown, len(estimates)+1)
	}
}

// TestBatchRejectsReadAsBefore pins the 400 bodies of malformed batches: a
// body error, a bad deadline header, and item errors.
func TestBatchRejectsReadAsBefore(t *testing.T) {
	s := New(Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	for _, tc := range []struct {
		body, header, want string
	}{
		{`{"jobs":[{"benchmark":5}]}`, "",
			`{"error":"invalid JSON body: json: cannot unmarshal number into Go struct field JobRequest.jobs.benchmark of type string"}`},
		{`{"jobs":[`, "", `{"error":"invalid JSON body: unexpected EOF"}`},
		{`{"jobs":[]}`, "", `{"error":"empty batch"}`},
		{`{"jobs":[{"benchmark":"BP","org":"SAC"}]}`, "x", `{"error":"invalid X-Sacd-Timeout-Ms header \"x\""}`},
		{`{"jobs":[{"benchmark":"BP","org":"SAC"},{"benchmark":"nope","org":"SAC"}]}`, "",
			`{"error":"batch rejected: 1 of 2 jobs invalid","jobs":[{},{"error":"workload: unknown benchmark \"nope\""}]}`},
	} {
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs:batch", strings.NewReader(tc.body))
		if tc.header != "" {
			req.Header.Set(client.TimeoutHeader, tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || string(body) != tc.want+"\n" {
			t.Errorf("body %s: HTTP %d %s, want 400 %s", tc.body, resp.StatusCode, body, tc.want)
		}
	}
}

// TestRequestMemoConcurrent decodes overlapping batches from several
// goroutines at once, so the race detector sees the memo's sharing, and
// checks every decode against the reference path.
func TestRequestMemoConcurrent(t *testing.T) {
	m := NewRequestMemo("")
	var bodies [][]byte
	for i := 0; i < 4; i++ {
		var reqs []client.JobRequest
		for k := 0; k < 8; k++ {
			req := tinyRequest("BP", "SAC")
			req.Config.WorkloadScale = 256 + (i+k)%6
			reqs = append(reqs, req)
		}
		b, _ := json.Marshal(client.BatchRequest{Jobs: reqs})
		bodies = append(bodies, b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				body := bodies[(g+n)%len(bodies)]
				got, err := m.DecodeBatch(bytes.NewReader(body))
				ref, refErr := m.decodeSlow(body)
				if d := sameBatchJobs(got, ref, err, refErr); d != "" {
					t.Errorf("goroutine %d: %s", g, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// writeCounter counts the Write calls a log receives.
type writeCounter struct {
	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	return w.buf.Write(p)
}

// TestBatchLogsInOneWrite checks that a batch of inline estimate answers,
// run on several goroutines, reaches the log as one Write holding every
// job's line and the batch line.
func TestBatchLogsInOneWrite(t *testing.T) {
	log := &writeCounter{}
	_, c := testDaemon(t, Config{Workers: 4, Log: log})
	var reqs []client.JobRequest
	for _, b := range []string{"BP", "RN", "SN", "AN", "BP", "RN"} {
		r := tinyRequest(b, "SAC")
		r.Fidelity = client.FidelityEstimate
		reqs = append(reqs, r)
	}
	sts, err := c.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.writes != 1 {
		t.Fatalf("batch logged in %d writes, want 1:\n%s", log.writes, log.buf.String())
	}
	text := log.buf.String()
	for _, st := range sts {
		if !strings.Contains(text, "sacd: done "+st.ID+" fidelity=estimate source="+st.Source+" total=") {
			t.Errorf("no line for job %s in\n%s", st.ID, text)
		}
	}
	if !strings.HasSuffix(text, "sacd: accepted batch of 6 (0 queued, 6 estimate)\n") || strings.Count(text, "\n") != 7 {
		t.Fatalf("log is not six job lines and the batch line:\n%s", text)
	}
}
