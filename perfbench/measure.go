package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request (a simulation cell, a batch) share a trace ID; Parent is 0 for a
// root span.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder was created
	ID, Parent uint64
	Trace      uint64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the traced run. A nil recorder is the
// untraced run: every method is a no-op, so call sites need no guard.
type recorder struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder {
	if !on {
		return nil
	}
	return &recorder{t0: time.Now()}
}

// newTrace returns a fresh trace ID (0 when untraced).
func (r *recorder) newTrace() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// open is a started span; end records it.
type open struct {
	r *recorder
	s span
}

// begin starts a span under parent (0 = root) in trace.
func (r *recorder) begin(name string, parent, trace uint64) *open {
	if r == nil {
		return nil
	}
	return &open{r: r, s: span{
		Name: name, Start: time.Since(r.t0), ID: r.ids.Add(1), Parent: parent, Trace: trace,
	}}
}

// id is the span's ID for use as a child's parent (0 when untraced).
func (o *open) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.r.t0)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// named returns the recorded spans called name.
func (r *recorder) named(name string) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the spans called name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.named(name) {
		d += s.dur()
	}
	return d
}

// mean is the average duration of the spans called name (0 if none).
func (r *recorder) mean(name string) time.Duration {
	n := len(r.named(name))
	if n == 0 {
		return 0
	}
	return r.total(name) / time.Duration(n)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// write saves every span as a Chrome trace_event file (the format
// internal/obs writes for simulations): one track per trace ID, with the
// span and parent IDs as event arguments.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	t := obs.NewTracer()
	r.mu.Lock()
	for _, s := range r.spans {
		t.Complete("perfbench", s.Name, s.Start.Microseconds(), max(s.dur().Microseconds(), 1),
			int(8+s.Trace), obs.A("id", s.ID), obs.A("parent", s.Parent), obs.A("trace", s.Trace))
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of samples by linear interpolation
// between order statistics of the raw samples (no histogram buckets).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailLine reports p99 of samples only when at least ten samples lie beyond
// it; otherwise it says how many more samples p99 would need.
func tailLine(name string, samples []float64, unit string) string {
	n := len(samples)
	if float64(n)*0.01 < 10 {
		return fmt.Sprintf("%s p99: not reported (n=%d; needs n>=1000 for 10 samples beyond it)", name, n)
	}
	return fmt.Sprintf("%s p99: %.4f %s (n=%d, %d beyond)", name, quantile(samples, 0.99), unit, n, n/100)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so the
// measured phase's peak is not the set-up's.
func resetPeakRSS() {
	// Best effort: kernels without clear_refs keep the set-up peak, which
	// the README states.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// fingerprint describes the machine and code a result came from.
func fingerprint(root string, seed int64) string {
	fp := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(root),
		"seed":       seed,
	}
	b, _ := json.Marshal(fp) // a map of plain values always encodes
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" outside a git repository.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// finishTrace writes the traced run's spans under .bench_build/traces.
func finishTrace(o opts, rec *recorder, res *result, workload string) error {
	rel := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", workload, o.seed))
	path := filepath.Join(o.root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := rec.write(path); err != nil {
		return err
	}
	res.note("trace: %d spans written to %s", len(rec.spans), rel)
	return nil
}
