package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	sac "repro"
	"repro/client"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

const (
	serveConns = 2  // closed-loop callers, each on its own connection
	serveBatch = 64 // jobs per jobs:batch request
	serveCheck = 8  // results compared byte for byte with in-process runs

	// rssAtJobs is the measured job count at which the daemon's peak RSS
	// is read: a few seconds of serving on a 2-core machine.
	rssAtJobs = 40000
)

// universe is the 256-cell estimate sweep remote_bench_test.go serves: all
// 16 benchmarks × 4 organizations × 4 workload scales, with explicit
// configurations so the store keys are stable.
func universe() []client.JobRequest {
	var reqs []client.JobRequest
	for _, bench := range sac.BenchmarkNames() {
		for _, org := range []string{"SAC", "memory-side", "SM-side", "static"} {
			for _, scale := range []int{256, 384, 512, 640} {
				cfg := sac.ScaledConfig()
				cfg.WorkloadScale = scale
				reqs = append(reqs, client.JobRequest{
					Benchmark: bench, Org: org, Config: &cfg, Fidelity: client.FidelityEstimate,
				})
			}
		}
	}
	return reqs
}

// daemon is a running sacd or saccoord process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// readyWriter watches a daemon's stdout for its serving line.
type readyWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string
	sent  bool
}

func (w *readyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const tag = "serving on "
		if i := strings.Index(w.buf.String(), tag); i >= 0 {
			rest := w.buf.String()[i+len(tag):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				w.sent = true
				w.ready <- rest[:j]
			}
		}
	}
	return len(p), nil
}

// startDaemon launches one of the built daemons (sacd or saccoord) with a
// loopback ephemeral address plus args, and waits for its serving line. Its
// log goes to logPath.
func startDaemon(o opts, bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	rw := &readyWriter{ready: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(o.root, ".bench_build", "bin", bin), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = rw
	cmd.Stderr = logf
	// Should the benchmark itself be killed, the daemon dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	select {
	case d.url = <-rw.ready:
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("%s exited before serving: %v", bin, err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address within 30s", bin)
	}
}

// startSacd launches sacd with its default flags plus a cache directory
// (which turns the journal on at <cache-dir>/journal.wal) and any extra
// args. Its log goes to a file beside the cache.
func startSacd(o opts, dir string, args ...string) (*daemon, error) {
	return startDaemon(o, "sacd", dir+".log", append([]string{"-cache-dir", dir}, args...)...)
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 30 seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// warmDaemon starts a daemon on a fresh cache directory, simulates the
// whole universe into its store, and submits the universe once more so
// every result is read back from disk into the store's hot tier. It returns
// the second pass's statuses, results included, in request order, and the
// seconds each of the three steps took.
func warmDaemon(o opts, dir string, reqs []client.JobRequest) (*daemon, []client.JobStatus, [3]float64, error) {
	var steps [3]float64
	t := time.Now()
	d, err := startSacd(o, dir)
	if err != nil {
		return nil, nil, steps, err
	}
	steps[0] = time.Since(t).Seconds()
	c := client.New(d.url)
	var sts []client.JobStatus
	for pass := 1; pass <= 2; pass++ {
		t = time.Now()
		if sts, err = c.SubmitBatch(context.Background(), reqs); err != nil {
			d.stop()
			return nil, nil, steps, fmt.Errorf("warm-up: %w", err)
		}
		for i, st := range sts {
			if st.State != client.StateDone {
				d.stop()
				return nil, nil, steps, fmt.Errorf("warm-up cell %d: %s (%s)", i, st.State, st.Error)
			}
		}
		steps[pass] = time.Since(t).Seconds()
	}
	return d, sts, steps, nil
}

// scrape reads the named counters from a Prometheus /metrics endpoint.
func scrape(url string, names ...string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, err
				}
				out[n] = v
			}
		}
	}
	return out, sc.Err()
}

// batch is one closed-loop request: its jobs and, for each job, the cell it
// was drawn from, so the check can tell what the job must return.
type batch struct {
	reqs  []client.JobRequest
	cells []cellRef
}

// cellRef names the cell behind one job. warm cells are universe indexes;
// a cold cell is new to the daemon (see fleet.go).
type cellRef struct {
	idx   int // universe index, or exactBases index for a cold exact cell
	cold  bool
	exact bool
	batch int64 // the batch a cold cell belongs to
}

// load is the closed-loop measured phase both serving workloads share:
// serveConns callers, each submitting the next batch and waiting until
// every job in it is terminal before it sends again.
type load struct {
	url   string
	build func(b int64) batch // batch b of the seeded sequence
	// check counts batch's correct jobs and their simulated cycles. It runs
	// under the phase's lock, so it may keep state across batches.
	check func(b batch, sts []client.JobStatus) (ok, cycles int64)
	// rssPids are the processes whose peak RSS is summed once rssAt jobs
	// are done: a daemon keeps every job it has answered, so reading at a
	// fixed job count keeps peak_rss_mb from rising with throughput.
	rssPids []int
	rssAt   int64
	// minBatches keeps the phase going past the measured time until that
	// many batches are done (0 = the measured time only).
	minBatches int
}

// phase is what a load measured.
type phase struct {
	jobs, done      int64
	cycles          float64   // simulated cycles of the done jobs
	lat             []float64 // ms per batch
	winJobs, winCyc []float64 // per one-second window of the measured time
	rss             float64   // MiB; 0 if rssAt jobs were never done
	start           time.Duration
	wall            float64
	errs            []error
}

func (l load) run(o opts, rec *recorder) *phase {
	var (
		cursor atomic.Int64
		mu     sync.Mutex // guards p and l.check's state
		p      = &phase{winJobs: make([]float64, int(o.seconds/time.Second))}
	)
	p.winCyc = make([]float64, len(p.winJobs))
	if rec != nil {
		p.start = time.Since(rec.t0)
	}
	t0 := time.Now()
	deadline := t0.Add(o.seconds)
	more := func() bool {
		if time.Now().Before(deadline) {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return len(p.lat)+len(p.errs) < l.minBatches
	}
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(l.url)
			for more() {
				bt := l.build(cursor.Add(1) - 1)
				trace := rec.newTrace()
				sp := rec.begin("client.SubmitBatch", 0, trace)
				t := time.Now()
				sts, err := submitAndWait(c, bt.reqs, rec, sp.id(), trace)
				rt := time.Since(t).Seconds() * 1000
				sp.end()

				mu.Lock()
				p.jobs += int64(len(bt.reqs))
				if err != nil {
					p.errs = append(p.errs, err)
					mu.Unlock()
					continue
				}
				p.lat = append(p.lat, rt)
				ok, cyc := l.check(bt, sts)
				if w := int(time.Since(t0) / time.Second); w < len(p.winJobs) {
					p.winJobs[w] += float64(ok)
					p.winCyc[w] += float64(cyc)
				}
				p.done += ok
				p.cycles += float64(cyc)
				if p.rss == 0 && l.rssAt > 0 && p.done >= l.rssAt {
					if p.rss, err = sumPeakRSS(l.rssPids); err != nil {
						p.errs = append(p.errs, err)
						p.rss = -1
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0).Seconds()
	return p
}

// sumPeakRSS adds up the peak resident sets of pids, in MiB.
func sumPeakRSS(pids []int) (float64, error) {
	var sum float64
	for _, pid := range pids {
		mb, err := peakRSSMB(pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// setEndToEnd publishes a serving phase's end-to-end metrics. pids are read
// now when the phase never reached its RSS sampling point. windowed takes
// the throughputs as the median one-second window, which damps bursts of
// interference; otherwise they are the whole phase's.
func (p *phase) setEndToEnd(res *result, setups []float64, pids []int, rssAt int64, windowed bool) error {
	rss := p.rss
	switch {
	case rss < 0:
		return fmt.Errorf("reading peak RSS: %v", p.errs)
	case rss == 0:
		// Too slow to reach the sampling point: read the peak now. It
		// understates memory, and jobs_per_s shows why.
		res.note("peak_rss_mb: only %d jobs done, read at the end of the phase", p.done)
		var err error
		if rss, err = sumPeakRSS(pids); err != nil {
			return err
		}
	default:
		res.note("peak_rss_mb: daemon VmHWM once %d measured jobs were done", rssAt)
	}
	jobs, cyc := median(p.winJobs), median(p.winCyc)
	if !windowed {
		jobs, cyc = float64(p.done)/p.wall, p.cycles/p.wall
	}
	res.set("setup_s", median(setups))
	res.set("jobs_per_s", jobs)
	res.set("sim_cycles_per_s", cyc)
	res.set("batch_p50_ms", median(p.lat))
	res.set("peak_rss_mb", rss)
	res.note("setup_s samples: %v", setups)
	res.note("jobs_per_s: median of %d one-second windows %v; over the whole phase %.1f",
		len(p.winJobs), p.winJobs, float64(p.done)/p.wall)
	res.note("batch_p50_ms: %.4f ms over n=%d batches", median(p.lat), len(p.lat))
	res.note(tailLine("batch", p.lat, "ms"))
	return nil
}

// checkServed compares served result bytes with the canonical encoding of
// the same request run in this process, timing each run as span name.
func checkServed(res *result, rec *recorder, name string, req client.JobRequest, served json.RawMessage) {
	res.attempted++
	cell := fmt.Sprintf("%s/%s@%d %s", req.Benchmark, req.Org, req.Config.WorkloadScale, req.Fidelity)
	sp := rec.begin(name, 0, rec.newTrace())
	want, err := runInProcess(req)
	sp.end()
	switch {
	case err != nil:
		res.fail(1, "%s in process: %v", cell, err)
	case served == nil:
		res.fail(1, "%s was never served", cell)
	case !bytes.Equal(served, want):
		res.fail(1, "%s: served result differs from sac.Run", cell)
	}
}

// serveWarm is the serve-warm workload: sacd at its default flags, warmed
// with the 256-cell estimate universe, takes 64-job jobs:batch requests
// from two closed-loop callers. Every job is a hot-tier store hit.
func serveWarm(o opts) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	reqs := universe()
	rng := rand.New(rand.NewSource(o.seed))
	perm := rng.Perm(len(reqs))
	checkSet := map[int]bool{}
	for _, i := range rng.Perm(len(reqs))[:serveCheck] {
		checkSet[i] = true
	}
	rec := newRecorder(o.trace)

	// Set-up, three times: each from an empty cache directory to a daemon
	// whose store holds the whole universe in its hot tier. The last daemon
	// serves the measured phase.
	var setups []float64
	var d *daemon
	var warm []client.JobStatus
	var steps [3]float64
	var err error
	for i := 0; i < 3; i++ {
		if d != nil {
			d.stop()
		}
		sp := rec.begin("setup", 0, rec.newTrace())
		t := time.Now()
		d, warm, steps, err = warmDaemon(o, filepath.Join(o.work, fmt.Sprintf("cache%d", i)), reqs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		res.note("setup %d: start %.3f s, simulate and store %.3f s, read back %.3f s", i, steps[0], steps[1], steps[2])
		sp.end()
	}
	defer d.stop()
	cycles := make([]int64, len(warm))
	for i, st := range warm {
		cycles[i] = st.Cycles
	}

	counters := []string{"sacd_cache_hits_total", "sacd_journal_appends_total"}
	before, err := scrape(d.url, counters...)
	if err != nil {
		return nil, err
	}

	// Measured phase: batch b is the next 64 cells of the seeded order.
	served := map[int]json.RawMessage{} // first served result of each checked cell
	l := load{
		url: d.url,
		build: func(b int64) batch {
			var bt batch
			for i := int64(0); i < serveBatch; i++ {
				idx := perm[(b*serveBatch+i)%int64(len(perm))]
				bt.reqs = append(bt.reqs, reqs[idx])
				bt.cells = append(bt.cells, cellRef{idx: idx})
			}
			return bt
		},
		check: func(bt batch, sts []client.JobStatus) (ok, cyc int64) {
			for i, st := range sts {
				idx := bt.cells[i].idx
				if st.State != client.StateDone || st.Cycles != cycles[idx] {
					continue
				}
				ok++
				cyc += st.Cycles
				if checkSet[idx] && served[idx] == nil {
					served[idx] = st.Result
				}
			}
			return ok, cyc
		},
		rssPids: []int{d.cmd.Process.Pid},
		rssAt:   rssAtJobs,
	}
	p := l.run(o, rec)
	after, err := scrape(d.url, counters...)
	if err != nil {
		return nil, err
	}
	res.attempted += p.jobs
	if n := p.jobs - p.done; n > 0 {
		res.fail(n, "%d jobs not done with their warm-up cycle count (errors: %v)", n, p.errs)
	}

	// Output check: a seeded sample of served results must equal, byte for
	// byte, the canonical encoding of the same cell run in this process.
	for i := range checkSet {
		checkServed(res, rec, "sac.Run estimate", reqs[i], served[i])
	}

	res.note("serve-warm: %d jobs in %d batches over %.3f s on %d connections, daemon %s",
		p.jobs, len(p.lat), p.wall, serveConns, d.url)
	if !o.trace {
		return res, p.setEndToEnd(res, setups, l.rssPids, rssAtJobs, true)
	}
	res.note("traced end-to-end: %.1f jobs/s, batch p50 %.4f ms (compare the untraced run for tracing overhead)",
		float64(p.done)/p.wall, median(p.lat))
	res.set("server.hits_per_job", (after["sacd_cache_hits_total"]-before["sacd_cache_hits_total"])/float64(max(p.done, 1)))
	res.set("server.journal_appends_per_job",
		(after["sacd_journal_appends_total"]-before["sacd_journal_appends_total"])/float64(max(p.done, 1)))
	res.set("backend.estimate_ms", millis(rec.mean("sac.Run estimate")))
	if err := probeServing(o, rec, res, d.url, reqs, perm, warm); err != nil {
		return nil, err
	}
	return res, finishTrace(o, rec, res, "serve-warm")
}

// submitAndWait sends one batch and collects any job the response did not
// already carry in a terminal state.
func submitAndWait(c *client.Client, batch []client.JobRequest, rec *recorder, parent, trace uint64) ([]client.JobStatus, error) {
	ctx := context.Background()
	sts, err := c.SubmitBatch(ctx, batch)
	if err != nil {
		return nil, err
	}
	var pending []string
	for _, st := range sts {
		if !st.Done() {
			pending = append(pending, st.ID)
		}
	}
	if len(pending) == 0 {
		return sts, nil
	}
	sp := rec.begin("client.WaitAll", parent, trace)
	final, err := c.WaitAll(ctx, pending)
	sp.end()
	if err != nil {
		return nil, err
	}
	for i, st := range sts {
		if f, ok := final[st.ID]; ok {
			sts[i] = f
		}
	}
	return sts, nil
}

// runInProcess runs one request's cell with sac.Run and returns the
// canonical JSON the store and the daemon serve.
func runInProcess(req client.JobRequest) ([]byte, error) {
	rj, err := server.ResolveRequest(req, "")
	if err != nil {
		return nil, err
	}
	st, err := sac.Run(rj.Cfg, rj.Spec, sac.WithFidelity(sac.Fidelity(rj.Fidelity)))
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// probeServing times the benchmark's own calls into the serving layers'
// public functions on the workload's requests: request resolution, batch
// encode and decode, store writes and reads (disk, then hot), and journal
// appends.
func probeServing(o opts, rec *recorder, res *result, url string, reqs []client.JobRequest, perm []int, warm []client.JobStatus) error {
	batch := make([]client.JobRequest, serveBatch)
	for i := range batch {
		batch[i] = reqs[perm[i]]
	}
	const reps = 200

	// server.ResolveRequest: validation and store-key derivation per job.
	resolved := make([]server.ResolvedJob, len(reqs))
	trace := rec.newTrace()
	for i, req := range reqs {
		sp := rec.begin("server.ResolveRequest", 0, trace)
		rj, err := server.ResolveRequest(req, "")
		sp.end()
		if err != nil {
			return err
		}
		resolved[i] = rj
	}
	res.set("server.resolve_us", micros(rec.mean("server.ResolveRequest")))

	// Client encode and decode of one 64-job batch and its response.
	body, err := json.Marshal(client.BatchRequest{Jobs: batch})
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/jobs:batch?results=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("probe batch: HTTP %d: %s", resp.StatusCode, raw)
	}
	trace = rec.newTrace()
	for i := 0; i < reps; i++ {
		sp := rec.begin("client.encode", 0, trace)
		_, err := json.Marshal(client.BatchRequest{Jobs: batch})
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.begin("client.decode", 0, trace)
		var br client.BatchResponse
		err = json.Unmarshal(raw, &br)
		sp.end()
		if err != nil {
			return err
		}
	}
	res.set("client.encode_us_per_batch", micros(rec.mean("client.encode")))
	res.set("client.decode_us_per_batch", micros(rec.mean("client.decode")))
	res.set("client.resp_bytes_per_job", float64(len(raw))/serveBatch)

	// Store: write the universe into a fresh store, reopen it, read every
	// key from disk, then read it again from the hot tier.
	runs := make([]*stats.Run, len(warm))
	for i, w := range warm {
		runs[i] = new(stats.Run)
		if err := json.Unmarshal(w.Result, runs[i]); err != nil {
			return fmt.Errorf("warm-up result %d: %w", i, err)
		}
	}
	dir := filepath.Join(o.work, "probe-store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	trace = rec.newTrace()
	for i, rj := range resolved {
		sp := rec.begin("store.Put", 0, trace)
		err := st.PutRunAt(rj.Cfg, rj.Spec.Name, rj.Plan.Key(), rj.Fidelity, runs[i])
		sp.end()
		if err != nil {
			st.Close()
			return err
		}
	}
	entries := st.Len()
	if err := st.Close(); err != nil {
		return err
	}
	if st, err = store.Open(dir, store.Options{}); err != nil {
		return err
	}
	defer st.Close()
	for _, tier := range []string{"store.GetRaw disk", "store.GetRaw hot"} {
		for _, rj := range resolved {
			sp := rec.begin(tier, 0, trace)
			_, _, ok := st.GetRaw(rj.Key)
			sp.end()
			if !ok {
				return fmt.Errorf("probe store lost key %s", rj.Key)
			}
		}
	}
	res.set("store.put_ms", millis(rec.mean("store.Put")))
	res.note("store.put_ms measured while filling a store to %d entries", entries)
	res.set("store.getraw_disk_us", micros(rec.mean("store.GetRaw disk")))
	res.set("store.getraw_hot_us", micros(rec.mean("store.GetRaw hot")))

	return probeJournal(o, rec, res, reqs)
}

// probeJournal appends one accept record per request to a fresh journal,
// as sacd writes them, and records journal.append_us.
func probeJournal(o opts, rec *recorder, res *result, reqs []client.JobRequest) error {
	j, _, err := journal.Open(filepath.Join(o.work, "probe.wal"), journal.Options{})
	if err != nil {
		return err
	}
	trace := rec.newTrace()
	for i, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			j.Close()
			return err
		}
		r := journal.Record{Op: journal.OpAccept, ID: fmt.Sprintf("probe-%d", i), Req: b, Unix: time.Now().UnixMilli()}
		sp := rec.begin("journal.Append", 0, trace)
		err = j.Append(r)
		sp.end()
		if err != nil {
			j.Close()
			return err
		}
	}
	res.set("journal.append_us", micros(rec.mean("journal.Append")))
	return j.Close()
}
