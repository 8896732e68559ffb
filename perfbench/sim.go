package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	sac "repro"
	"repro/internal/backend"
	"repro/internal/eval"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/workload"
)

// cell is one (benchmark, organization) simulation at the default scaled
// configuration.
type cell struct {
	bench string
	org   sac.Org
}

func (c cell) name() string { return c.bench + "/" + c.org.String() }

func (c cell) cfg() sac.Config { return sac.ScaledConfig().WithOrg(c.org) }

// runCells are sim-run's 12 cells: FastSet × {memory-side, SAC}.
func runCells() []cell {
	var out []cell
	for _, b := range sac.FastSet() {
		for _, o := range []sac.Org{sac.MemorySide, sac.SAC} {
			out = append(out, cell{b, o})
		}
	}
	return out
}

// sweepCells are the 30 cells of Fig 8 over FastSet.
func sweepCells() []cell {
	var out []cell
	for _, b := range sac.FastSet() {
		for _, o := range sac.Orgs() {
			out = append(out, cell{b, o})
		}
	}
	return out
}

// setupSystems is the sim workloads' set-up: building every cell's
// simulator without running it, the fixed cost each sac.Run pays before its
// cycle loop.
// It runs reps times, each from a collected heap, and returns the median,
// so work moved out of the cycle loop into construction shows in setup_s.
func setupSystems(cells []cell, reps int) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		for _, c := range cells {
			spec, err := sac.Benchmark(c.bench)
			if err != nil {
				return 0, err
			}
			if _, err := sac.NewSystem(c.cfg(), spec); err != nil {
				return 0, fmt.Errorf("%s: %w", c.name(), err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	// The measured phase's peak starts from a heap returned to the OS, not
	// from the set-up's garbage.
	debug.FreeOSMemory()
	resetPeakRSS()
	return median(times), nil
}

// simTotals accumulates the simulated counters of the cells a run produced.
type simTotals struct {
	cells                                int64
	cycles, memops, skipped              int64
	l1Hits, l1Misses, llcHits, llcMisses int64
	ringBytes, dramBytes, reconfigs      int64
}

func (t *simTotals) add(st *stats.Run) {
	t.cells++
	t.cycles += st.Cycles
	t.memops += st.MemOps
	t.skipped += st.Skipped
	t.l1Hits += st.L1Hits
	t.l1Misses += st.L1Misses
	t.llcHits += st.LLCHits
	t.llcMisses += st.LLCMisses
	t.ringBytes += st.RingBytes
	t.dramBytes += st.DRAMBytes
	t.reconfigs += st.Reconfigs
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setCounts publishes the simulated counters as per-layer metrics. They
// repeat exactly across runs; the golden check already fails a run whose
// statistics move.
func (t *simTotals) setCounts(r *result) {
	r.set("gpu.sim_cycles", float64(t.cycles))
	r.set("gpu.skipped_frac", ratio(t.skipped, t.cycles))
	r.set("sm.memops", float64(t.memops))
	r.set("cache.l1_hit_rate", ratio(t.l1Hits, t.l1Hits+t.l1Misses))
	r.set("llc.hit_rate", ratio(t.llcHits, t.llcHits+t.llcMisses))
	r.set("xchip.ring_bytes", float64(t.ringBytes))
	r.set("dram.bytes", float64(t.dramBytes))
	r.set("core.reconfigs", float64(t.reconfigs))
}

// checkCell compares one cell's statistics with the golden copy.
func checkCell(r *result, c cell, st *stats.Run) {
	r.attempted++
	want, ok := goldenCells()[c.name()]
	if !ok {
		r.fail(1, "%s: no golden statistics recorded", c.name())
		return
	}
	if got := statsSum(st); got != want.Sum {
		r.fail(1, "%s: statistics differ from golden (cycles %d, golden %d)", c.name(), st.Cycles, want.Cycles)
	}
}

// simRun is the sim-run workload: one caller, sequential default-options
// exact sac.Run calls over the 12 cells, each pass in a fresh seeded order,
// for at least one pass and until the measured time has passed. Each
// cell's time is its best pass: interference from other tenants of a
// shared machine only ever slows a call down, so with --seconds long
// enough for several passes the best is the steadier estimate of what the
// code costs.
func simRun(o opts) (*result, error) {
	cells := runCells()
	res := &result{metrics: map[string]float64{}}
	setup, err := setupSystems(cells, 25)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	rec := newRecorder(o.trace)

	best := make([]float64, len(cells)) // ms, per cell
	var calls int
	var peak float64       // MiB, the largest call's peak RSS
	var tot, all simTotals // tot: one pass's statistics; all: every call's
	var passTimes []string
	t0 := time.Now()
	for pass := 0; pass == 0 || time.Since(t0) < o.seconds; pass++ {
		tp := time.Now()
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			spec, err := sac.Benchmark(c.bench)
			if err != nil {
				return nil, err
			}
			trace := rec.newTrace()
			root := rec.begin("cell "+c.name(), 0, trace)
			// Every call starts from a collected heap returned to the OS,
			// so neither its time nor its peak memory depends on the
			// garbage of the call before it.
			debug.FreeOSMemory()
			resetPeakRSS()
			sp := rec.begin("sac.Run", root.id(), trace)
			t := time.Now()
			st, err := sac.Run(c.cfg(), spec)
			ms := time.Since(t).Seconds() * 1000
			sp.end()
			root.end()
			calls++
			rss, rerr := peakRSSMB(os.Getpid())
			if rerr != nil {
				return nil, rerr
			}
			peak = max(peak, rss)
			if err != nil {
				res.attempted++
				res.fail(1, "%s: %v", c.name(), err)
				continue
			}
			checkCell(res, c, st)
			if pass == 0 || ms < best[i] {
				best[i] = ms
			}
			if pass == 0 {
				tot.add(st)
			}
			all.add(st)
		}
		passTimes = append(passTimes, fmt.Sprintf("%.3f", time.Since(tp).Seconds()))
	}
	wall := time.Since(t0).Seconds()
	var sum float64
	var perCell []string
	for i, ms := range best {
		sum += ms
		perCell = append(perCell, fmt.Sprintf("%s=%.0f", cells[i].name(), ms))
	}
	sum /= 1000
	res.note("sim-run: %d sac.Run calls in %d passes (%s s), %.3f s measured", calls, len(passTimes),
		strings.Join(passTimes, ", "), wall)
	res.note("best sac.Run ms per cell: %s", strings.Join(perCell, " "))
	if !o.trace {
		res.set("setup_s", setup)
		res.set("jobs_per_s", float64(len(cells))/sum)
		res.set("sim_cycles_per_s", float64(tot.cycles)/sum)
		res.set("batch_p50_ms", median(best))
		res.set("peak_rss_mb", peak)
		res.note("batch_p50_ms: %.3f ms, median of n=%d cells' best sac.Run calls", median(best), len(best))
		res.note(tailLine("batch", best, "ms"))
		return res, nil
	}
	res.note("traced end-to-end: %.1f sim cycles/s, %.4f cells/s (compare the untraced run for tracing overhead)",
		float64(tot.cycles)/sum, float64(len(cells))/sum)
	streamNs, err := replayStreams(rec, cells)
	if err != nil {
		return nil, err
	}
	res.set("workload.stream_ns_per_access", streamNs)
	// sac.NewSystem is gpu.New behind a benchmark lookup; the set-up timed
	// it for every cell.
	res.set("gpu.new_ms", setup*1000/float64(len(cells)))
	res.set("gpu.run_ns_per_memop", float64(rec.total("sac.Run"))/float64(max(all.memops, 1)))
	tot.setCounts(res)
	return res, finishTrace(o, rec, res, "sim-run")
}

// simSweep is the sim-sweep workload: a fresh default Runner computing
// Fig 8 over FastSet, at least once and until the measured time has
// passed. Its figures come from the fastest sweep, for the reason sim-run
// takes each cell's best call. The sweep is a fixed experiment, so the seed
// selects nothing; it is recorded with the result.
func simSweep(o opts) (*result, error) {
	cells := sweepCells()
	res := &result{metrics: map[string]float64{}}
	setup, err := setupSystems(cells, 25)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(o.trace)

	var lat []float64
	var tot, all simTotals // tot: one sweep's statistics; all: every sweep's
	var sweeps []eval8
	t0 := time.Now()
	for pass := 0; pass == 0 || time.Since(t0) < o.seconds; pass++ {
		r := sac.NewRunner()
		r.Benchmarks = sac.FastSet()
		trace := rec.newTrace()
		root := rec.begin("Runner.Fig8", 0, trace)
		if rec != nil {
			r.Simulate = func(cfg gpu.Config, spec workload.Spec, ro gpu.RunOpts) (*stats.Run, error) {
				sp := rec.begin("eval.Simulate", root.id(), trace)
				defer sp.end()
				return backend.Run(cfg, spec, ro)
			}
		}
		t := time.Now()
		f8, err := r.Fig8()
		lat = append(lat, time.Since(t).Seconds()*1000)
		root.end()
		if err != nil {
			res.attempted++
			res.fail(1, "Fig8: %v", err)
			continue
		}
		var table bytes.Buffer
		f8.Print(&table)
		sweeps = append(sweeps, eval8{table: table.Bytes(), f8: f8})
	}
	wall := time.Since(t0).Seconds()
	for i, s := range sweeps {
		res.attempted++
		if !bytes.Equal(s.table, goldenFig8()) {
			res.fail(1, "Fig 8 table differs from golden")
		}
		for _, br := range s.f8.Runs {
			for org, st := range br.ByOrg {
				checkCell(res, cell{br.Spec.Name, org}, st)
				if i == 0 {
					tot.add(st)
				}
				all.add(st)
			}
		}
	}
	res.note("sim-sweep: %d sweeps of %d cells, %.3f s measured", len(lat), len(cells), wall)
	if !o.trace {
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		best := slices.Min(lat) / 1000
		res.set("setup_s", setup)
		res.set("jobs_per_s", float64(tot.cells)/best)
		res.set("sim_cycles_per_s", float64(tot.cycles)/best)
		res.set("batch_p50_ms", best*1000)
		res.set("peak_rss_mb", rss)
		res.note("batch_p50_ms: the fastest of n=%d Fig8 sweeps (ms: %v)", len(lat), lat)
		res.note(tailLine("batch", lat, "ms"))
		return res, nil
	}
	res.note("traced end-to-end: %.1f sim cycles/s, %.4f cells/s (compare the untraced run for tracing overhead)",
		float64(all.cycles)/wall, float64(all.cells)/wall)
	streamNs, err := replayStreams(rec, runCells())
	if err != nil {
		return nil, err
	}
	res.set("workload.stream_ns_per_access", streamNs)
	sims := rec.named("eval.Simulate")
	busy := rec.total("eval.Simulate")
	workers := runtime.GOMAXPROCS(0) // the default Runner's Parallelism
	var waits []float64
	var idle time.Duration
	for _, sw := range rec.named("Runner.Fig8") {
		var mine []span
		for _, s := range sims {
			if s.Trace == sw.Trace {
				mine = append(mine, s)
				waits = append(waits, (s.Start - sw.Start).Seconds())
			}
		}
		idle += tailIdle(sw, mine, workers)
	}
	sweepD := rec.total("Runner.Fig8")
	res.set("eval.cell_busy_s", busy.Seconds())
	res.set("eval.queue_wait_p50_s", median(waits))
	res.set("eval.parallel_eff", busy.Seconds()/(sweepD.Seconds()*float64(workers)))
	res.set("eval.tail_idle_s", idle.Seconds())
	res.set("gpu.run_ns_per_memop", float64(busy.Nanoseconds())/float64(max(all.memops, 1)))
	tot.setCounts(res)
	return res, finishTrace(o, rec, res, "sim-sweep")
}

// eval8 is one sweep's printed table and result.
type eval8 struct {
	table []byte
	f8    *eval.Fig8Result
}

// tailIdle is the time inside sweep during which fewer cells were in flight
// than the runner has workers.
func tailIdle(sweep span, cells []span, workers int) time.Duration {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, s := range cells {
		edges = append(edges, edge{s.Start, +1}, edge{s.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	var idle time.Duration
	inflight, last := 0, sweep.Start
	for _, e := range edges {
		if inflight < workers {
			idle += e.at - last
		}
		inflight += e.delta
		last = e.at
	}
	if inflight < workers {
		idle += sweep.End - last
	}
	return idle
}

// replayStreams drains every warp's access stream of each distinct
// benchmark once through workload's Stream/Next — the generator the cycle
// loop consumes — and records workload.stream_ns_per_access. Streams do
// not depend on the LLC organization, so one replay per benchmark suffices.
func replayStreams(rec *recorder, cells []cell) (float64, error) {
	seen := map[string]bool{}
	var accesses int64
	var d time.Duration
	for _, c := range cells {
		if seen[c.bench] {
			continue
		}
		seen[c.bench] = true
		spec, err := workload.ByName(c.bench)
		if err != nil {
			return 0, err
		}
		m := c.cfg().Machine()
		sp := rec.begin("workload.Stream "+c.bench, 0, rec.newTrace())
		t := time.Now()
		for ki := 0; ki < spec.KernelCount(); ki++ {
			for chip := 0; chip < m.Chips; chip++ {
				for sm := 0; sm < m.SMsPerChip; sm++ {
					for w := 0; w < m.WarpsPerSM; w++ {
						st := spec.Stream(m, ki, chip, sm, w)
						for {
							if _, ok := st.Next(); !ok {
								break
							}
							accesses++
						}
					}
				}
			}
		}
		sp.end()
		d += time.Since(t)
	}
	return float64(d.Nanoseconds()) / float64(max(accesses, 1)), nil
}
