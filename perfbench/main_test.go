package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The self-test: the workloads and metrics this command prints must be the
// ones BENCHMARK.json declares and README.md documents. Every run also
// re-checks the printed names against BENCHMARK.json before it prints its
// result line (emit), so a drift fails loudly at run time too.

func declaredForTest(t *testing.T) declared {
	t.Helper()
	d, err := loadDeclared("..")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWorkloadsMatchDeclared(t *testing.T) {
	d := declaredForTest(t)
	var got, want []string
	for name := range workloads {
		got = append(got, name)
	}
	for name := range d.workloads {
		want = append(want, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, want)
	}
}

func TestMetricNamesAreSetAndDocumented(t *testing.T) {
	d := declaredForTest(t)
	var src strings.Builder
	for _, f := range []string{"sim.go", "serve.go", "fleet.go"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	set := map[string]bool{}
	for _, m := range regexp.MustCompile(`\.set\("([^"]+)"`).FindAllStringSubmatch(src.String(), -1) {
		set[m[1]] = true
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	declaredNames := map[string]bool{}
	for _, m := range append(append([]declMetric(nil), d.endToEnd...), d.perLayer...) {
		declaredNames[m.Name] = true
		if !set[m.Name] {
			t.Errorf("declared metric %s is never set by a workload", m.Name)
		}
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("declared metric %s is not documented in README.md", m.Name)
		}
	}
	for name := range set {
		if !declaredNames[name] {
			t.Errorf("metric %s is set but not declared in BENCHMARK.json", name)
		}
	}
	found := false
	for _, m := range d.endToEnd {
		found = found || (m.Name == "setup_s" && m.Unit == "s")
	}
	if !found {
		t.Error(`BENCHMARK.json must declare setup_s in "s"`)
	}
}

func TestCheckNames(t *testing.T) {
	want := []declMetric{{"a", "s"}, {"b", "ms"}}
	if err := checkNames(map[string]float64{"a": 1, "b": 2}, want); err != nil {
		t.Fatal(err)
	}
	if err := checkNames(map[string]float64{"a": 1}, want); err == nil {
		t.Fatal("a missing metric passed")
	}
	if err := checkNames(map[string]float64{"a": 1, "b": 2, "c": 3}, want); err == nil {
		t.Fatal("an undeclared metric passed")
	}
}

func TestQuantileAndTail(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	if got := median(s); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(s, 1); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
	few := make([]float64, 999)
	if line := tailLine("batch", few, "ms"); !strings.Contains(line, "not reported") {
		t.Fatalf("p99 reported from %d samples: %s", len(few), line)
	}
	if line := tailLine("batch", make([]float64, 1000), "ms"); !strings.Contains(line, "10 beyond") {
		t.Fatalf("p99 withheld from 1000 samples: %s", line)
	}
}

func TestTailIdle(t *testing.T) {
	sweep := span{Start: 0, End: 10}
	cells := []span{{Start: 0, End: 6}, {Start: 0, End: 10}}
	if got := tailIdle(sweep, cells, 2); got != 4 {
		t.Fatalf("tail idle = %v, want 4", got)
	}
}
