package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	sac "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

const (
	fleetCold  = 8    // cells new to the fleet in each 64-job batch: 1 in 8
	fleetExact = 2    // of them exact at WorkloadScale 512: a quarter
	fleetRSSAt = 4000 // measured jobs at which the daemons' peak RSS is read
	fleetHops  = 1000 // traced runs: cold jobs, hence hops, for a p99 with 10 beyond
	fleetPuts  = 32   // store writes timed at the run's final entry count
)

// exactBases are the cells a cold exact job repeats: every benchmark ×
// organization at WorkloadScale 512.
func exactBases() []client.JobRequest {
	var reqs []client.JobRequest
	for _, bench := range sac.BenchmarkNames() {
		for _, org := range []string{"SAC", "memory-side", "SM-side", "static"} {
			cfg := sac.ScaledConfig()
			cfg.WorkloadScale = 512
			reqs = append(reqs, client.JobRequest{
				Benchmark: bench, Org: org, Config: &cfg, Fidelity: client.FidelityExact,
			})
		}
	}
	return reqs
}

// coldReq makes base's cell new to the fleet. It raises MaxCycles, a safety
// stop no run comes near, by k+1: that changes the cell's store key and
// nothing the simulation does, so every cold cell costs what its base costs.
func coldReq(base client.JobRequest, k int64) client.JobRequest {
	cfg := *base.Config
	cfg.MaxCycles += k + 1
	base.Config = &cfg
	return base
}

// fleet is a coordinator and one sacd worker enrolled with it.
type fleet struct {
	url    string
	coord  *daemon // the saccoord binary; nil when the coordinator runs in process
	inproc func()  // stops the in-process coordinator (traced runs)
	worker *daemon
	dir    string // the worker's cache directory
}

// startFleet starts the coordinator and a sacd worker, both at their
// default flags, and waits until the worker is in the placement ring. An
// untraced run starts the saccoord binary. A traced run runs the
// coordinator in this process so that its Dial can time each hop.
func startFleet(o opts, dir string, rec *recorder) (*fleet, error) {
	f := &fleet{dir: dir}
	if rec == nil {
		d, err := startDaemon(o, "saccoord", dir+"-coord.log")
		if err != nil {
			return nil, err
		}
		f.coord, f.url = d, d.url
	} else {
		url, stop, err := startCoordinator(dir+"-coord.log", rec)
		if err != nil {
			return nil, err
		}
		f.url, f.inproc = url, stop
	}
	w, err := startSacd(o, dir, "-coordinator", f.url)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.worker = w
	c := client.New(f.url)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if fs, err := c.Fleet(context.Background()); err == nil && fs.Live >= 1 {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("the worker did not join the coordinator within 30s")
		}
	}
}

// kill ends a fleet whose files are thrown away. Draining would take
// seconds: sacd's HTTP shutdown waits up to 5 s for connections the
// coordinator opened during the warm-up and never used.
func (f *fleet) kill() {
	for _, d := range []*daemon{f.worker, f.coord} {
		if d != nil {
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	if f.inproc != nil {
		f.inproc()
	}
}

// stop drains the worker, then the coordinator.
func (f *fleet) stop() {
	if f.worker != nil {
		f.worker.stop()
	}
	if f.coord != nil {
		f.coord.stop()
	}
	if f.inproc != nil {
		f.inproc()
	}
}

// startCoordinator serves a coordinator from this process, configured as
// saccoord configures it at its default flags, except that its Dial times
// each job submission to a worker as a cluster.hop span.
func startCoordinator(logPath string, rec *recorder) (string, func(), error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return "", nil, err
	}
	c := cluster.New(cluster.Config{
		Heartbeat:   2 * time.Second,
		MaxAttempts: 4,
		Vnodes:      cluster.DefaultVnodes,
		Registry:    obs.NewRegistry(),
		Log:         logf,
		// The options of cluster.New's default Dial, over a timed transport.
		Dial: func(url string) *client.Client {
			hc := &http.Client{Transport: hopTransport{client.DefaultTransport(), rec}}
			return client.New(url, client.WithRetries(1),
				client.WithBackoff(50*time.Millisecond, 200*time.Millisecond), client.WithHTTPClient(hc))
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		logf.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 60 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns once hs is closed
	}()
	stop := func() {
		c.Close()
		hs.Close()
		<-served
		logf.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// hopTransport times the coordinator's job submissions to its workers: each
// POST /v1/jobs:batch round trip, response body included, is one
// cluster.hop span. Watches, which wait for the simulation, are not hops.
type hopTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/v1/jobs:batch") {
		return t.base.RoundTrip(req)
	}
	sp := t.rec.begin("cluster.hop", 0, t.rec.newTrace())
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	sp   *open
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// warmFleet starts a fleet on a fresh cache directory and runs the whole
// universe through it, so the coordinator holds every universe cell as a
// completed flight. It returns the universe's statuses in request order.
func warmFleet(o opts, dir string, reqs []client.JobRequest, rec *recorder) (*fleet, []client.JobStatus, error) {
	f, err := startFleet(o, dir, rec)
	if err != nil {
		return nil, nil, err
	}
	sts, err := submitAndWait(client.New(f.url), reqs, nil, 0, 0)
	if err != nil {
		f.stop()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	for i, st := range sts {
		if st.State != client.StateDone {
			f.stop()
			return nil, nil, fmt.Errorf("warm-up cell %d: %s (%s)", i, st.State, st.Error)
		}
	}
	return f, sts, nil
}

// serveFleetCold is the serve-fleet-cold workload: saccoord and one sacd
// worker at their default flags, warmed with the universe, take 64-job
// batches from two closed-loop callers. In each batch 56 jobs are warm
// universe cells the coordinator answers from its completed flights, six
// are estimate cells new to the fleet, answered inline by the worker, and
// two are new exact cells at WorkloadScale 512 that go through the
// worker's queue, journal and simulation pool. Every new cell is written
// to the worker's store.
func serveFleetCold(o opts) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	reqs := universe()
	bases := exactBases()
	rng := rand.New(rand.NewSource(o.seed))
	perm := rng.Perm(len(reqs))
	checkSet := map[int]bool{}
	for _, i := range rng.Perm(len(reqs))[:serveCheck] {
		checkSet[i] = true
	}
	// Cold cells take their bases in seeded orders that visit every base
	// before repeating one, so a run's simulation work barely depends on
	// the seed.
	exactOrder, estOrder := rng.Perm(len(bases)), rng.Perm(len(reqs))
	rec := newRecorder(o.trace)

	// Set-up, three times: each from an empty cache directory to a fleet
	// whose coordinator has every universe cell. The last one serves.
	var setups []float64
	var f *fleet
	var warm []client.JobStatus
	var err error
	for i := 0; i < 3; i++ {
		if f != nil {
			f.kill()
		}
		sp := rec.begin("setup", 0, rec.newTrace())
		t := time.Now()
		f, warm, err = warmFleet(o, filepath.Join(o.work, fmt.Sprintf("fleet%d", i)), reqs, rec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		sp.end()
	}
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()
	warmCycles := make([]int64, len(warm))
	for i, st := range warm {
		warmCycles[i] = st.Cycles
	}

	coordCounters := []string{"saccoord_dispatches_total", "saccoord_memo_recalls_total", "saccoord_steals_total"}
	workerCounters := []string{"sacd_journal_appends_total"}
	coordBefore, err := scrape(f.url, coordCounters...)
	if err != nil {
		return nil, err
	}
	workerBefore, err := scrape(f.worker.url, workerCounters...)
	if err != nil {
		return nil, err
	}

	// Measured phase. Batch b draws its cold slots from its own seeded
	// source; its warm slots take the next cells of the seeded universe
	// order, and its cold slots the next bases of the cold orders. Cold
	// cells of the first two batches are checked against in-process runs:
	// every exact one, and two estimate ones from each batch.
	type sample struct {
		req    client.JobRequest
		served json.RawMessage
	}
	var (
		samples     []sample
		warmServed  = map[int]json.RawMessage{}
		exactCycles = map[int]int64{} // base index → cycles of its first cold run
		coldMs      []float64         // accept to done of each cold job, at the coordinator
		warmDone    int64
		coldDone    int64
		coldChecked = map[int64]int{} // batch → estimate cells sampled
	)
	l := load{
		url: f.url,
		build: func(b int64) batch {
			r := rand.New(rand.NewSource(o.seed*1_000_003 + b))
			coldAt := map[int]int64{} // slot → ordinal among the batch's cold cells
			for n, slot := range r.Perm(serveBatch)[:fleetCold] {
				coldAt[slot] = int64(n)
			}
			var bt batch
			next := b * (serveBatch - fleetCold)
			for i := 0; i < serveBatch; i++ {
				n, cold := coldAt[i]
				switch {
				case !cold:
					idx := perm[next%int64(len(perm))]
					next++
					bt.reqs = append(bt.reqs, reqs[idx])
					bt.cells = append(bt.cells, cellRef{idx: idx})
				case n < fleetExact:
					e := exactOrder[(b*fleetExact+n)%int64(len(bases))]
					bt.reqs = append(bt.reqs, coldReq(bases[e], b*fleetCold+n))
					bt.cells = append(bt.cells, cellRef{idx: e, cold: true, exact: true, batch: b})
				default:
					u := estOrder[(b*(fleetCold-fleetExact)+n-fleetExact)%int64(len(reqs))]
					bt.reqs = append(bt.reqs, coldReq(reqs[u], b*fleetCold+n))
					bt.cells = append(bt.cells, cellRef{idx: u, cold: true, batch: b})
				}
			}
			return bt
		},
		check: func(bt batch, sts []client.JobStatus) (ok, cyc int64) {
			for i, st := range sts {
				ref := bt.cells[i]
				if st.State != client.StateDone {
					continue
				}
				if ref.exact {
					// No warm-up ran this cell; every cold copy of one base
					// must agree, and the sample below is byte-checked.
					if c, seen := exactCycles[ref.idx]; seen && c != st.Cycles {
						continue
					}
					exactCycles[ref.idx] = st.Cycles
				} else if st.Cycles != warmCycles[ref.idx] {
					continue
				}
				ok++
				cyc += st.Cycles
				if !ref.cold {
					warmDone++
					if checkSet[ref.idx] && warmServed[ref.idx] == nil {
						warmServed[ref.idx] = st.Result
					}
					continue
				}
				coldDone++
				if st.FinishedAt != nil {
					coldMs = append(coldMs, st.FinishedAt.Sub(st.SubmittedAt).Seconds()*1000)
				}
				if ref.batch < 2 && (ref.exact || coldChecked[ref.batch] < 2) {
					if !ref.exact {
						coldChecked[ref.batch]++
					}
					samples = append(samples, sample{bt.reqs[i], st.Result})
				}
			}
			return ok, cyc
		},
		rssAt: fleetRSSAt,
	}
	if f.coord != nil {
		l.rssPids = []int{f.coord.cmd.Process.Pid, f.worker.cmd.Process.Pid}
	}
	if o.trace {
		l.minBatches = (fleetHops + fleetCold - 1) / fleetCold
	}
	p := l.run(o, rec)
	coordAfter, err := scrape(f.url, coordCounters...)
	if err != nil {
		return nil, err
	}
	workerAfter, err := scrape(f.worker.url, workerCounters...)
	if err != nil {
		return nil, err
	}
	res.attempted += p.jobs
	if n := p.jobs - p.done; n > 0 {
		res.fail(n, "%d jobs not done with the expected cycle count (errors: %v)", n, p.errs)
	}
	res.note("serve-fleet-cold: %d jobs (%d cold) in %d batches over %.3f s on %d connections, coordinator %s",
		p.jobs, coldDone, len(p.lat), p.wall, serveConns, f.url)

	// Output check: seeded samples of warm and cold results must equal,
	// byte for byte, the same cell run in this process.
	for i := range checkSet {
		checkServed(res, rec, "sac.Run estimate", reqs[i], warmServed[i])
	}
	if len(samples) != 2*(fleetExact+2) {
		res.attempted++
		res.fail(1, "%d of the first two batches' %d sampled cold cells were served", len(samples), 2*(fleetExact+2))
	}
	for _, s := range samples {
		checkServed(res, rec, "sac.Run "+s.req.Fidelity, s.req, s.served)
	}

	if !o.trace {
		// A second holds only a few of this workload's batches, so a
		// one-second window would count jobs in steps of 64: the rate is
		// taken over the whole phase instead.
		return res, p.setEndToEnd(res, setups, l.rssPids, fleetRSSAt, false)
	}
	res.note("traced end-to-end: %.1f jobs/s, batch p50 %.4f ms (coordinator in process; compare the untraced run for tracing overhead)",
		float64(p.done)/p.wall, median(p.lat))
	delta := func(after, before map[string]float64, name string) float64 { return after[name] - before[name] }
	res.set("cluster.dispatches_per_cold_job", delta(coordAfter, coordBefore, "saccoord_dispatches_total")/float64(max(coldDone, 1)))
	res.set("cluster.memo_per_warm_job", delta(coordAfter, coordBefore, "saccoord_memo_recalls_total")/float64(max(warmDone, 1)))
	res.set("cluster.steals", delta(coordAfter, coordBefore, "saccoord_steals_total"))
	res.set("server.journal_appends_per_job", delta(workerAfter, workerBefore, "sacd_journal_appends_total")/float64(max(coldDone, 1)))
	res.set("server.cold_done_p50_ms", median(coldMs))
	res.note("server.cold_done_p50_ms over n=%d cold jobs; %s", len(coldMs), tailLine("cold job", coldMs, "ms"))
	var hops []float64
	for _, s := range rec.named("cluster.hop") {
		if s.Start >= p.start {
			hops = append(hops, millis(s.dur()))
		}
	}
	res.set("cluster.hop_p50_ms", median(hops))
	hopP99 := 0.0 // too few hops for ten beyond p99; the note says so
	if float64(len(hops))*0.01 >= 10 {
		hopP99 = quantile(hops, 0.99)
	}
	res.set("cluster.hop_p99_ms", hopP99)
	res.note("cluster.hop over n=%d measured dispatches; %s", len(hops), tailLine("hop", hops, "ms"))
	res.set("backend.estimate_ms", millis(rec.mean("sac.Run estimate")))
	res.set("backend.exact_cold_ms", millis(rec.mean("sac.Run exact")))

	// The store and journal probes need the worker's files to themselves.
	f.stop()
	stopped = true
	if err := probeStorePut(rec, res, f.dir, reqs, warm); err != nil {
		return nil, err
	}
	if err := probeJournal(o, rec, res, reqs); err != nil {
		return nil, err
	}
	return res, finishTrace(o, rec, res, "serve-fleet-cold")
}

// probeStorePut times store.PutRunAt of cells new to the worker's store at
// the entry count the run left it with, and records store.put_ms.
func probeStorePut(rec *recorder, res *result, dir string, reqs []client.JobRequest, warm []client.JobStatus) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	entries := st.Len()
	trace := rec.newTrace()
	for i := 0; i < fleetPuts; i++ {
		req := coldReq(reqs[i], 1<<40+int64(i)) // beyond any key the run used
		rj, err := server.ResolveRequest(req, "")
		if err != nil {
			st.Close()
			return err
		}
		run := new(stats.Run)
		if err := json.Unmarshal(warm[i].Result, run); err != nil {
			st.Close()
			return fmt.Errorf("warm-up result %d: %w", i, err)
		}
		sp := rec.begin("store.Put", 0, trace)
		err = st.PutRunAt(rj.Cfg, rj.Spec.Name, rj.Plan.Key(), rj.Fidelity, run)
		sp.end()
		if err != nil {
			st.Close()
			return err
		}
	}
	res.set("store.put_ms", millis(rec.mean("store.Put")))
	res.note("store.put_ms: %d writes into the worker's store at %d entries", fleetPuts, entries)
	return st.Close()
}
