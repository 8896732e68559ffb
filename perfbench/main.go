// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks every output against a golden copy or an
// in-process reference, and prints the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run) as the last line of standard output.
//
// Usage, from the root of a checkout (perfbench/run.sh builds this command
// and the sacd and saccoord daemons first):
//
//	perfbench --workload sim-run --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// opts carries the command line into a workload.
type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // checkout root (the working directory)
	work    string // scratch directory for this run, under .bench_build
}

// result is one run's outcome. Metrics hold every end-to-end metric
// (untraced) or every per-layer metric (traced); info lines are printed
// before the final JSON for people reading the log.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	info              []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason, loudly.
func (r *result) fail(n int64, format string, args ...any) {
	r.failed += n
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: OUTPUT MISMATCH:", msg)
	r.note("MISMATCH: %s", msg)
}

var workloads = map[string]func(opts) (*result, error){
	"sim-run":          simRun,
	"sim-sweep":        simSweep,
	"serve-warm":       serveWarm,
	"serve-fleet-cold": serveFleetCold,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-run | sim-sweep | serve-warm | serve-fleet-cold")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Int("seconds", 20, "measured time per run, in seconds (sim workloads run whole passes)")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
		record  = flag.Bool("record-golden", false, "re-record perfbench/golden from this commit and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, record bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if record {
		return recordGolden(root)
	}
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	decl, err := loadDeclared(root)
	if err != nil {
		return err
	}
	if _, ok := decl.workloads[name]; !ok {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	o := opts{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		trace:   trace == 1,
		root:    root,
		work:    filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())),
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)

	fp := fingerprint(root, seed)
	fmt.Printf("fingerprint: %s\n", fp)
	res, err := w(o)
	if err != nil {
		return err
	}
	want := decl.endToEnd
	if o.trace {
		want = decl.perLayer
		// A layer this workload never calls reads 0, named so nobody takes
		// the zero for a measurement.
		var unused []string
		for _, m := range want {
			if _, ok := res.metrics[m.Name]; !ok {
				res.set(m.Name, 0)
				unused = append(unused, m.Name)
			}
		}
		if len(unused) > 0 {
			res.note("not exercised by %s (reported as 0): %s", name, strings.Join(unused, " "))
		}
	}
	return emit(res, want)
}

// metricOut is one entry of the result line's metrics object.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the info lines and the result line. The metric names must be
// exactly the declared set: a workload that produced a name BENCHMARK.json
// does not declare, or missed one it does, is a benchmark bug.
func emit(res *result, want []declMetric) error {
	if err := checkNames(res.metrics, want); err != nil {
		return err
	}
	for _, line := range res.info {
		fmt.Println(line)
	}
	frac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("failed_frac: %.6f (%d of %d operations)\n", frac, res.failed, res.attempted)
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metricOut{}}
	for _, m := range want {
		v := res.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", m.Name, v)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed their output check", res.failed, res.attempted)
	}
	return nil
}

// checkNames is the self-test that keeps the printed metrics and
// BENCHMARK.json in step.
func checkNames(got map[string]float64, want []declMetric) error {
	var missing, extra []string
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metric names differ from BENCHMARK.json: missing [%s], undeclared [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return nil
}

// declMetric is one metric entry of BENCHMARK.json.
type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declared struct {
	workloads map[string]bool
	endToEnd  []declMetric
	perLayer  []declMetric
}

func loadDeclared(root string) (declared, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return declared{}, err
	}
	var f struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declMetric `json:"end_to_end"`
		PerLayer []declMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return declared{}, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	d := declared{workloads: map[string]bool{}, endToEnd: f.EndToEnd, perLayer: f.PerLayer}
	for _, w := range f.Workloads {
		d.workloads[w.Name] = true
	}
	return d, nil
}
