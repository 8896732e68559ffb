package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stats"
)

// Config tunes a Coordinator. The zero value is usable: defaults fill in.
type Config struct {
	// Heartbeat is the cadence workers must beat at (advertised to them at
	// registration). Default 2s.
	Heartbeat time.Duration
	// Lapse is how long a worker may stay silent before it is declared gone,
	// removed from the ring, and its in-flight dispatches stolen. Default
	// 3×Heartbeat.
	Lapse time.Duration
	// StealAfter caps one dispatch attempt: a worker that holds a job longer
	// has it stolen by the next ring successor. 0 means attempts are bounded
	// only by the job deadline and worker death.
	StealAfter time.Duration
	// MaxAttempts bounds dispatch attempts per job (steals included).
	// Default 4; every attempt after the first increments the steal counter.
	MaxAttempts int
	// Vnodes is the ring's virtual-node count per worker (0 = DefaultVnodes).
	Vnodes int
	// MemoTTL bounds how long a completed flight's result stays pinned as a
	// memo entry. Past it the flight is evicted; a later submission of the
	// same key re-dispatches, which is cheap because the owning worker's
	// content-addressed store still has the result (source "store" instead
	// of "memo"). Default 15m.
	MemoTTL time.Duration
	// Retention bounds how long a terminal job stays queryable via
	// Status/Result after it finishes; past it the job is garbage-collected
	// so coordinator memory does not grow with every job ever accepted.
	// Default 15m.
	Retention time.Duration
	// DefaultFidelity applies to requests that name no rung ("" = exact).
	DefaultFidelity string
	// Registry, when set, receives the coordinator's fleet metrics.
	Registry *obs.Registry
	// Log receives one line per lifecycle event; nil discards.
	Log io.Writer
	// Dial builds the client for one worker URL; tests substitute it. Nil
	// selects client.New with fast retries (the coordinator has its own
	// retry layer — stealing — so per-call retries stay short).
	Dial func(url string) *client.Client
}

// errPermanent marks a dispatch failure that stealing cannot fix (the
// simulation itself failed deterministically); the job reports it instead of
// burning the remaining attempts on other workers.
var errPermanent = errors.New("permanent job failure")

// ErrClosed is returned for submissions after Close.
var ErrClosed = errors.New("coordinator closed")

// ErrNoWorkers is the terminal error for a job whose deadline passed (or
// whose coordinator closed) while no eligible worker was registered.
var ErrNoWorkers = errors.New("no eligible workers")

// workerEntry is the coordinator's view of one registered worker.
type workerEntry struct {
	info       client.WorkerInfo
	cl         *client.Client
	health     string // last self-reported health; "gone" after lapse/deregister
	lastBeat   time.Time
	gone       bool
	inflight   int
	dispatched int64
	// attempts maps flight key → the cancel func of the dispatch attempt
	// currently running on this worker, so a lapse or deregistration can
	// abort them all and trigger steals immediately.
	attempts map[string]context.CancelFunc
}

// cflight is one fleet-wide singleflight execution: the first job for a key
// leads (dispatches to workers), and every other job with the same key joins.
type cflight struct {
	done chan struct{}
	// raw is the result in canonical wire form, exactly as the worker served
	// it — the coordinator relays results without ever decoding them, so a
	// warm fleet hit costs zero JSON round trips coordinator-side.
	raw    json.RawMessage
	err    error
	source string // worker-reported source of the leader's result
	cycles int64
	// doneAt (guarded by Coordinator.mu) stamps successful completion; the
	// GC sweeper evicts the flight MemoTTL after it. Failed flights never
	// get a stamp — they are evicted immediately so resubmissions retry.
	doneAt time.Time
}

// cjob is one accepted job at the coordinator.
type cjob struct {
	id  string
	req client.JobRequest
	res server.ResolvedJob

	ctx    context.Context
	cancel context.CancelFunc

	// doneCh closes exactly once when the job reaches a terminal state; the
	// shared watch endpoint (server.WatchJobs) parks on it.
	doneCh   chan struct{}
	doneOnce sync.Once

	mu     sync.Mutex
	state  string
	source string
	errMsg string
	// raw is the done job's result in wire form, kept until Retention GC;
	// run is its lazily-decoded form, built only for in-process Go callers.
	raw       json.RawMessage
	run       *stats.Run
	cycles    int64
	worker    string // worker that produced (or is producing) the result
	submitted time.Time
	started   time.Time
	finished  time.Time
	deadline  time.Time
}

// coordMetrics are the coordinator's obs series.
type coordMetrics struct {
	workersLive *obs.Metric
	jobs        *obs.Metric
	dispatches  *obs.Metric
	steals      *obs.Metric
	rebalances  *obs.Metric
	dedup       *obs.Metric
	memo        *obs.Metric
	failed      *obs.Metric
	jobSeconds  *obs.Histogram
}

// Coordinator owns placement and dedup for a fleet of sacd workers. It
// speaks the sacd jobs API verbatim (see Handler), so any client.Client —
// including sacsweep -remote — can point at it unchanged.
type Coordinator struct {
	cfg  Config
	ring *Ring

	mu      sync.Mutex
	workers map[string]*workerEntry
	jobs    map[string]*cjob
	flights map[string]*cflight
	steals  int64
	dedup   int64
	closed  bool

	closeCh chan struct{}
	wg      sync.WaitGroup
	m       *coordMetrics
	batches *server.RequestMemo
}

// New returns a started Coordinator (its lapse watcher is running); Close
// stops it.
func New(cfg Config) *Coordinator {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.Lapse <= 0 {
		cfg.Lapse = 3 * cfg.Heartbeat
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.MemoTTL <= 0 {
		cfg.MemoTTL = 15 * time.Minute
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 15 * time.Minute
	}
	if cfg.Dial == nil {
		cfg.Dial = func(url string) *client.Client {
			// Short per-call retry budget: the steal loop is the real retry
			// layer, and a dead worker should fail into it fast.
			return client.New(url, client.WithRetries(1), client.WithBackoff(50*time.Millisecond, 200*time.Millisecond))
		}
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(cfg.Vnodes),
		workers: make(map[string]*workerEntry),
		jobs:    make(map[string]*cjob),
		flights: make(map[string]*cflight),
		closeCh: make(chan struct{}),
		batches: server.NewRequestMemo(cfg.DefaultFidelity),
	}
	if reg := cfg.Registry; reg != nil {
		c.m = &coordMetrics{
			workersLive: reg.Gauge("saccoord_workers_live", "Workers currently in the placement ring."),
			jobs:        reg.Counter("saccoord_jobs_total", "Jobs accepted by the coordinator."),
			dispatches:  reg.Counter("saccoord_dispatches_total", "Dispatch attempts sent to workers."),
			steals:      reg.Counter("saccoord_steals_total", "Dispatches re-routed after a worker died, lapsed, or timed out."),
			rebalances:  reg.Counter("saccoord_rebalances_total", "Ring rebalances (worker joins and departures)."),
			dedup:       reg.Counter("saccoord_dedup_joins_total", "Jobs that joined another job's in-flight execution fleet-wide."),
			memo:        reg.Counter("saccoord_memo_recalls_total", "Jobs answered from an already-completed flight."),
			failed:      reg.Counter("saccoord_jobs_failed_total", "Jobs that reached a non-done terminal state."),
			jobSeconds: reg.Histogram("saccoord_job_seconds", "Job latency from accept to terminal state.",
				[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}),
		}
	}
	c.wg.Add(1)
	go c.watchLapses()
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "saccoord: "+format+"\n", args...)
	}
}

// newJobID draws a random 8-byte hex id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: rand: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// ---- worker table ----

// Register adds (or revives) a worker and returns the heartbeat contract.
func (c *Coordinator) Register(info client.WorkerInfo) (client.RegisterResponse, error) {
	if info.ID == "" || info.URL == "" {
		return client.RegisterResponse{}, fmt.Errorf("worker registration needs id and url")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return client.RegisterResponse{}, ErrClosed
	}
	w := c.workers[info.ID]
	if w == nil {
		w = &workerEntry{attempts: make(map[string]context.CancelFunc)}
		c.workers[info.ID] = w
	}
	w.info = info
	w.cl = c.cfg.Dial(info.URL)
	w.health = client.HealthHealthy
	w.lastBeat = time.Now()
	w.gone = false
	c.ring.Add(info.ID)
	c.noteRingLocked()
	c.logf("worker %s registered at %s (%s)", info.ID, info.URL, c.ring)
	return client.RegisterResponse{
		HeartbeatMS: c.cfg.Heartbeat.Milliseconds(),
		LapseMS:     c.cfg.Lapse.Milliseconds(),
	}, nil
}

// Heartbeat records one worker heartbeat; ok is false for unknown workers
// (the agent re-registers on that signal). A draining or unhealthy worker
// stays registered but stops receiving new placements; one that lapsed and
// comes back is revived into the ring.
func (c *Coordinator) Heartbeat(id string, h client.Health) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return false
	}
	w.lastBeat = time.Now()
	if h.Status != "" {
		w.health = h.Status
	}
	if w.gone {
		w.gone = false
		if h.Status == "" {
			// A bare heartbeat must not leave the revived worker stuck at
			// health "gone", or pickWorker would never route to it.
			w.health = client.HealthHealthy
		}
		c.ring.Add(id)
		c.noteRingLocked()
		c.logf("worker %s revived by heartbeat (%s)", id, c.ring)
	}
	return true
}

// Deregister removes a worker gracefully: out of the ring, its in-flight
// dispatches stolen. ok is false for unknown workers.
func (c *Coordinator) Deregister(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return false
	}
	c.markGoneLocked(id, w, "deregistered")
	return true
}

// markGoneLocked declares a worker dead: removed from the ring and every
// dispatch attempt running on it canceled, which bounces those jobs back
// into the steal loop immediately.
func (c *Coordinator) markGoneLocked(id string, w *workerEntry, why string) {
	if w.gone {
		return
	}
	w.gone = true
	w.health = "gone"
	c.ring.Remove(id)
	c.noteRingLocked()
	n := len(w.attempts)
	for key, cancel := range w.attempts {
		cancel()
		delete(w.attempts, key)
	}
	c.logf("worker %s gone (%s), %d dispatches stolen (%s)", id, why, n, c.ring)
}

// noteRingLocked refreshes the rebalance counter and live-worker gauge.
func (c *Coordinator) noteRingLocked() {
	if c.m != nil {
		c.m.rebalances.Inc()
		c.m.workersLive.Set(float64(c.ring.Len()))
	}
}

// watchLapses is the heartbeat-lapse sweeper: a worker silent past Lapse is
// declared gone (fast failure detection for SIGKILLed workers whose jobs
// would otherwise hang until the per-attempt timeout). The same tick also
// runs the memory GC: done flights past MemoTTL and terminal jobs past
// Retention are evicted so the coordinator does not accrete every result
// and job it has ever seen (workers' content-addressed stores keep evicted
// results one cheap re-dispatch away).
func (c *Coordinator) watchLapses() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.closeCh:
			return
		case <-t.C:
			now := time.Now()
			c.mu.Lock()
			for id, w := range c.workers {
				if !w.gone && now.Sub(w.lastBeat) > c.cfg.Lapse {
					c.markGoneLocked(id, w, fmt.Sprintf("heartbeat lapse >%s", c.cfg.Lapse))
				}
			}
			c.gcLocked(now)
			c.mu.Unlock()
		}
	}
}

// gcLocked evicts done flights older than MemoTTL and terminal jobs older
// than Retention. Lock order is c.mu → j.mu, matching every other path
// (no caller acquires c.mu while holding a job lock).
func (c *Coordinator) gcLocked(now time.Time) {
	for key, f := range c.flights {
		if !f.doneAt.IsZero() && now.Sub(f.doneAt) > c.cfg.MemoTTL {
			delete(c.flights, key)
		}
	}
	for id, j := range c.jobs {
		j.mu.Lock()
		fin := j.finished
		j.mu.Unlock()
		if !fin.IsZero() && now.Sub(fin) > c.cfg.Retention {
			delete(c.jobs, id)
		}
	}
}

// ---- job lifecycle ----

// Submit accepts one job: resolves its identity, then leads or joins the
// fleet-wide flight for its cache key. Exactly one worker execution happens
// per unique key no matter how many clients submit it concurrently.
func (c *Coordinator) Submit(req client.JobRequest) (client.JobStatus, error) {
	rj, err := server.ResolveRequest(req, c.cfg.DefaultFidelity)
	if err != nil {
		return client.JobStatus{}, err
	}
	j := c.newCJob(req, rj)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		j.cancel()
		return client.JobStatus{}, ErrClosed
	}
	c.jobs[j.id] = j
	if c.m != nil {
		c.m.jobs.Inc()
	}
	start := c.startJobLocked(j)
	c.mu.Unlock()
	start()
	return j.status(), nil
}

// SubmitBatch accepts up to client.MaxBatch jobs decoded and resolved by a
// server.RequestMemo, making every flight decision in one pass under the
// lock — duplicates inside the batch join the first item's flight exactly
// like duplicates across clients, so a sweep submitted as one batch still
// costs one worker execution per unique key. Semantics mirror
// server.SubmitBatch: all-or-nothing, with per-item validation errors ("" =
// valid) when any request is bad, and with results, done statuses carry
// their raw result bytes.
func (c *Coordinator) SubmitBatch(items []server.BatchJob, results bool) ([]client.JobStatus, []string, error) {
	if len(items) == 0 {
		return nil, nil, errors.New("empty batch")
	}
	if len(items) > client.MaxBatch {
		return nil, nil, fmt.Errorf("batch of %d jobs exceeds the limit of %d", len(items), client.MaxBatch)
	}
	itemErrs := make([]string, len(items))
	bad := false
	for i := range items {
		if err := items[i].Err; err != nil {
			itemErrs[i] = err.Error()
			bad = true
		}
	}
	if bad {
		return nil, itemErrs, nil
	}
	jobs := make([]*cjob, len(items))
	starts := make([]func(), len(items))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, ErrClosed
	}
	for i := range items {
		j := c.newCJob(items[i].Req, items[i].Job)
		jobs[i] = j
		c.jobs[j.id] = j
		if c.m != nil {
			c.m.jobs.Inc()
		}
		starts[i] = c.startJobLocked(j)
	}
	c.mu.Unlock()
	for _, start := range starts {
		start()
	}
	sts := make([]client.JobStatus, len(jobs))
	for i, j := range jobs {
		st, raw := j.result()
		if results {
			st.Result = raw
		}
		sts[i] = st
	}
	c.logf("accepted batch of %d", len(jobs))
	return sts, nil, nil
}

// newCJob builds one accepted job with its lifecycle context.
func (c *Coordinator) newCJob(req client.JobRequest, rj server.ResolvedJob) *cjob {
	j := &cjob{
		id:        newJobID(),
		req:       req,
		res:       rj,
		doneCh:    make(chan struct{}),
		state:     client.StateQueued,
		submitted: time.Now(),
	}
	ctx := context.Background()
	if req.TimeoutMS > 0 {
		j.deadline = j.submitted.Add(time.Duration(req.TimeoutMS) * time.Millisecond)
		ctx, j.cancel = context.WithDeadline(ctx, j.deadline)
	} else {
		ctx, j.cancel = context.WithCancel(ctx)
	}
	j.ctx = ctx
	return j
}

// startJobLocked makes the flight decision for one registered job — lead,
// memo recall, or dedup join — and returns the action to invoke once c.mu
// drops. The caller holds c.mu; deferring the action keeps goroutine spawns
// and settle's j.mu acquisition outside the coordinator lock.
func (c *Coordinator) startJobLocked(j *cjob) func() {
	f := c.flights[j.res.Key]
	switch {
	case f == nil:
		f = &cflight{done: make(chan struct{})}
		c.flights[j.res.Key] = f
		c.wg.Add(1)
		return func() { go c.lead(j, f) }
	case isDone(f):
		// Completed flight: recall without touching the fleet.
		if c.m != nil {
			c.m.memo.Inc()
		}
		return func() { c.settle(j, f, client.SourceMemo) }
	default:
		c.dedup++
		if c.m != nil {
			c.m.dedup.Inc()
		}
		c.wg.Add(1)
		return func() { go c.join(j, f) }
	}
}

func isDone(f *cflight) bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// settle publishes a flight's outcome into one job. source overrides the
// flight's own source for dedup joins and memo recalls. The terminal-state
// channel closes here and only here — on the one call that actually
// transitions the job — so watchers wake exactly once.
func (c *Coordinator) settle(j *cjob, f *cflight, source string) {
	j.mu.Lock()
	if j.state == client.StateDone || j.state == client.StateFailed ||
		j.state == client.StateExpired || j.state == client.StateCanceled {
		j.mu.Unlock()
		return
	}
	j.finished = time.Now()
	switch {
	case f.err == nil:
		j.state = client.StateDone
		if source == "" {
			source = f.source
		}
		j.source = source
		j.raw = f.raw
		j.cycles = f.cycles
	case errors.Is(f.err, context.DeadlineExceeded):
		j.state = client.StateExpired
		j.errMsg = "deadline exceeded"
	case errors.Is(f.err, context.Canceled):
		j.state = client.StateCanceled
		j.errMsg = "canceled by client"
	default:
		j.state = client.StateFailed
		j.errMsg = f.err.Error()
	}
	if c.m != nil {
		if j.state != client.StateDone {
			c.m.failed.Inc()
		}
		c.m.jobSeconds.Observe(j.finished.Sub(j.submitted).Seconds())
	}
	j.cancel()
	j.mu.Unlock()
	j.doneOnce.Do(func() { close(j.doneCh) })
}

// fail publishes a terminal error that did not come from the flight (joiner
// deadline/cancel while the flight keeps running for others).
func (c *Coordinator) fail(j *cjob, err error) {
	c.settle(j, &cflight{err: err}, "")
}

// join waits for another job's flight. The joiner's own deadline and cancel
// still apply: the flight keeps running for everyone else.
func (c *Coordinator) join(j *cjob, f *cflight) {
	defer c.wg.Done()
	j.mu.Lock()
	j.state = client.StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	select {
	case <-f.done:
		c.settle(j, f, client.SourceDedup)
	case <-j.ctx.Done():
		c.fail(j, j.ctx.Err())
	case <-c.closeCh:
		c.fail(j, ErrClosed)
	}
}

// lead runs the flight: dispatch to the ring owner, steal on failure.
func (c *Coordinator) lead(j *cjob, f *cflight) {
	defer c.wg.Done()
	defer close(f.done)
	j.mu.Lock()
	j.state = client.StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	tried := make(map[string]bool)
	attempts := 0
	var lastErr error
	for {
		if err := j.ctx.Err(); err != nil {
			f.err = err
			break
		}
		if attempts >= c.cfg.MaxAttempts {
			f.err = fmt.Errorf("gave up after %d attempts: %w", attempts, lastErr)
			break
		}
		id, w, ok := c.pickWorker(j.res.Key, tried)
		if !ok {
			if len(tried) > 0 {
				// Every live worker failed this job once; sweep them again.
				clear(tried)
				continue
			}
			// Empty fleet: wait for a registration, bounded by the deadline.
			select {
			case <-j.ctx.Done():
				f.err = fmt.Errorf("%w: %w", ErrNoWorkers, j.ctx.Err())
			case <-c.closeCh:
				f.err = ErrClosed
			case <-time.After(100 * time.Millisecond):
				continue
			}
			break
		}
		attempts++
		if attempts > 1 {
			c.noteSteal()
			c.logf("job %s stolen to worker %s (attempt %d): %v", j.id, id, attempts, lastErr)
		}
		j.mu.Lock()
		j.worker = id
		j.mu.Unlock()
		raw, st, err := c.dispatch(j, id, w)
		if err == nil {
			f.raw, f.source, f.cycles = raw, st.Source, st.Cycles
			break
		}
		if errors.Is(err, errPermanent) {
			f.err = err
			break
		}
		lastErr = err
		tried[id] = true
	}
	c.mu.Lock()
	if f.err != nil {
		// Evict the failed flight so a resubmission retries instead of
		// recalling the failure forever (parity with sacd's flight table).
		// Joiners hold the flight pointer, so they still observe the error.
		delete(c.flights, j.res.Key)
	} else {
		f.doneAt = time.Now()
	}
	c.mu.Unlock()
	c.settle(j, f, "")
	j.mu.Lock()
	c.logf("job %s %s (%s/%s key=%.12s worker=%s source=%s)", j.id, j.state,
		j.res.Spec.Name, j.res.Cfg.Org, j.res.Key, j.worker, j.source)
	j.mu.Unlock()
}

// pickWorker walks the key's ring successors twice — healthy workers first,
// then degraded — skipping draining, unhealthy, gone, and already-tried
// workers. Returning the first eligible successor preserves key affinity:
// the owner gets the job whenever it is willing.
func (c *Coordinator) pickWorker(key string, tried map[string]bool) (string, *workerEntry, bool) {
	order := c.ring.Successors(key, c.ring.Len())
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, want := range []string{client.HealthHealthy, client.HealthDegraded} {
		for _, id := range order {
			w := c.workers[id]
			if w == nil || w.gone || tried[id] || w.health != want {
				continue
			}
			return id, w, true
		}
	}
	return "", nil, false
}

// dispatch runs one attempt on one worker: a single-item batch submit (so a
// warm worker answers terminally, result inline, in one round trip), then a
// long-poll watch until terminal — no ticker, no per-poll request storm. Any
// non-permanent error (network death, per-attempt timeout, worker-side
// expiry) sends the caller back into the steal loop; a best-effort
// steal-cancel tells the abandoned worker to stop burning cycles.
func (c *Coordinator) dispatch(j *cjob, id string, w *workerEntry) (json.RawMessage, client.JobStatus, error) {
	var ctx context.Context
	var cancel context.CancelFunc
	if c.cfg.StealAfter > 0 {
		ctx, cancel = context.WithTimeout(j.ctx, c.cfg.StealAfter)
	} else {
		ctx, cancel = context.WithCancel(j.ctx)
	}
	defer cancel()

	// Snapshot the client under the lock: a concurrent re-registration (the
	// agent re-enrolls after a coordinator restart or heartbeat 404) swaps
	// w.cl out from under a running dispatch.
	c.mu.Lock()
	cl := w.cl
	w.attempts[j.res.Key] = cancel
	w.inflight++
	w.dispatched++
	c.mu.Unlock()
	if c.m != nil {
		c.m.dispatches.Inc()
	}
	defer func() {
		c.mu.Lock()
		if w.attempts[j.res.Key] != nil {
			delete(w.attempts, j.res.Key)
		}
		w.inflight--
		c.mu.Unlock()
	}()

	req := j.req
	if !j.deadline.IsZero() {
		rem := time.Until(j.deadline).Milliseconds()
		if rem <= 0 {
			return nil, client.JobStatus{}, context.DeadlineExceeded
		}
		req.TimeoutMS = rem
	}
	sts, err := cl.SubmitBatch(ctx, []client.JobRequest{req})
	if err != nil {
		return nil, client.JobStatus{}, fmt.Errorf("worker %s: submit: %w", id, err)
	}
	st := sts[0]
	if st.Key != "" && st.Key != j.res.Key {
		// Placement and dedup both hang off this key; a worker computing a
		// different one means version drift, which stealing cannot fix.
		return nil, st, fmt.Errorf("%w: worker %s key mismatch: %s != %s", errPermanent, id, st.Key, j.res.Key)
	}
	for !st.Done() {
		resp, werr := cl.Watch(ctx, []string{st.ID}, 0)
		if werr != nil {
			c.stealCancel(cl, st.ID, id)
			return nil, st, fmt.Errorf("worker %s: watch: %w", id, werr)
		}
		if len(resp.Unknown) > 0 {
			// The worker restarted or GC'd the job mid-watch: steal.
			return nil, st, fmt.Errorf("worker %s: job %s vanished", id, st.ID)
		}
		if len(resp.Jobs) > 0 {
			st = resp.Jobs[0]
		}
		// Empty response = long-poll timeout: re-arm (ctx bounds the loop).
	}
	switch st.State {
	case client.StateDone:
		raw := st.Result
		if len(raw) == 0 {
			// The watch response inlines results; this fallback covers a
			// worker answering without them.
			raw, err = cl.ResultRaw(ctx, st.ID)
			if err != nil {
				return nil, st, fmt.Errorf("worker %s: result: %w", id, err)
			}
		}
		return raw, st, nil
	case client.StateFailed:
		return nil, st, fmt.Errorf("%w: worker %s: %s", errPermanent, id, st.Error)
	default:
		// Expired or canceled worker-side: retryable (another worker may
		// still make the coordinator's deadline, and a cancel usually means
		// our own steal fired).
		return nil, st, fmt.Errorf("worker %s: job %s %s: %s", id, st.ID, st.State, st.Error)
	}
}

// stealCancel tells a worker to stop a job this coordinator abandoned.
// Best-effort and asynchronous: the worker may already be dead, and the
// content-addressed store makes a racing completion harmless.
func (c *Coordinator) stealCancel(cl *client.Client, jobID, workerID string) {
	if jobID == "" {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := cl.Cancel(ctx, jobID); err != nil {
			c.logf("steal-cancel of %s on worker %s failed: %v", jobID, workerID, err)
		}
	}()
}

func (c *Coordinator) noteSteal() {
	c.mu.Lock()
	c.steals++
	c.mu.Unlock()
	if c.m != nil {
		c.m.steals.Inc()
	}
}

// Cancel stops one job; ok is false for unknown IDs. Canceling a leader
// cancels its flight (joiners see the cancellation too, mirroring sacd);
// canceling a joiner detaches only that job.
func (c *Coordinator) Cancel(id string) (client.JobStatus, bool) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return client.JobStatus{}, false
	}
	j.cancel()
	// Cancellation is asynchronous: the status below may still read running,
	// and the client polls until terminal — exactly like job expiry.
	st, _ := c.Status(id)
	return st, true
}

// Status reports one job; ok is false for unknown IDs.
func (c *Coordinator) Status(id string) (client.JobStatus, bool) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return client.JobStatus{}, false
	}
	return j.status(), true
}

// status snapshots the job's status.
func (j *cjob) status() client.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// result snapshots the job's status and, once it is done, its result in
// canonical wire form (nil before then), under one lock.
func (j *cjob) result() (client.JobStatus, json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.statusLocked()
	if st.State != client.StateDone {
		return st, nil
	}
	if j.raw == nil && j.run != nil {
		if b, err := json.Marshal(j.run); err == nil {
			j.raw = b
		}
	}
	return st, j.raw
}

// statusLocked renders the job's status; the caller holds j.mu.
func (j *cjob) statusLocked() client.JobStatus {
	st := client.JobStatus{
		ID:          j.id,
		State:       j.state,
		Benchmark:   j.res.Spec.Name,
		Org:         j.res.Cfg.Org.String(),
		Priority:    j.req.Priority,
		Fidelity:    displayFidelity(j.res.Fidelity),
		Key:         j.res.Key,
		Source:      j.source,
		Error:       j.errMsg,
		Cycles:      j.cycles,
		SubmittedAt: j.submitted,
	}
	if st.Priority == "" {
		st.Priority = client.PriorityNormal
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		st.DeadlineAt = &t
	}
	return st
}

func displayFidelity(fid string) string {
	if fid == "" {
		return client.FidelityExact
	}
	return fid
}

// Result returns a done job's result; ok is false for unknown IDs. The
// result rides the job itself, not the flight table, so memo eviction never
// strands a retained done job without its payload. The wire bytes are the
// source of truth; the decode happens lazily here, once, only for in-process
// Go callers (HTTP consumers go through ResultRaw and never pay it).
func (c *Coordinator) Result(id string) (*stats.Run, client.JobStatus, bool) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return nil, client.JobStatus{}, false
	}
	st, _ := c.Status(id)
	j.mu.Lock()
	run := j.run
	if run == nil && len(j.raw) > 0 {
		var r stats.Run
		if err := json.Unmarshal(j.raw, &r); err == nil {
			j.run = &r
			run = &r
		}
	}
	j.mu.Unlock()
	if st.State == client.StateDone && run != nil {
		return run, st, true
	}
	return nil, st, true
}

// ResultRaw returns a done job's result in canonical wire form, untouched
// since the worker served it. Nil raw with ok=true means no result (the job
// is not done). Together with Status and DoneChan this satisfies
// server.JobSource, so the coordinator mounts the same watch handler sacd
// does.
func (c *Coordinator) ResultRaw(id string) (json.RawMessage, client.JobStatus, bool) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return nil, client.JobStatus{}, false
	}
	st, raw := j.result()
	return raw, st, true
}

// DoneChan exposes a job's terminal-state channel to the watch endpoint.
func (c *Coordinator) DoneChan(id string) (<-chan struct{}, bool) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return nil, false
	}
	return j.doneCh, true
}

// Fleet snapshots the worker table and fleet counters.
func (c *Coordinator) Fleet() client.FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := client.FleetStatus{
		Live:      c.ring.Len(),
		Jobs:      len(c.jobs),
		Flights:   len(c.flights),
		Steals:    c.steals,
		DedupHits: c.dedup,
	}
	for _, w := range c.workers {
		fs.Workers = append(fs.Workers, client.WorkerStatus{
			ID:         w.info.ID,
			URL:        w.info.URL,
			Health:     w.health,
			LastBeatMS: time.Since(w.lastBeat).Milliseconds(),
			Inflight:   w.inflight,
			Dispatched: w.dispatched,
		})
	}
	sortWorkers(fs.Workers)
	return fs
}

func sortWorkers(ws []client.WorkerStatus) {
	for i := 1; i < len(ws); i++ {
		for k := i; k > 0 && ws[k].ID < ws[k-1].ID; k-- {
			ws[k], ws[k-1] = ws[k-1], ws[k]
		}
	}
}

// Close stops the coordinator: new submissions are rejected, every running
// job is canceled, and all goroutines are reaped.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	jobs := make([]*cjob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	close(c.closeCh)
	for _, j := range jobs {
		j.cancel()
	}
	c.wg.Wait()
}
