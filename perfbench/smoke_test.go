package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// electdBin is cmd/electd built once for the package's tests.
var electdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	electdBin = filepath.Join(dir, "electd")
	build := exec.Command("go", "build", "-o", electdBin, "repro/cmd/electd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build electd:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the command must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smoke runs one workload briefly and returns the exit code and the
// parsed result line.
func smoke(t *testing.T, name string, trace int, oracle oracleFunc) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o, err := parseOptions([]string{"-workload", name, "-seed", "3", "-seconds", "1.5", "-smoke",
		"-trace", fmt.Sprint(trace), "-electd", electdBin, "-root", "..",
		"-spans", filepath.Join(t.TempDir(), "spans.jsonl")}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if oracle != nil {
		o.oracle = oracle
	}
	code := execute(context.Background(), o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace %d: no result line (exit %d): %v\nstdout:\n%s\nstderr:\n%s", name, trace, code, err, stdout.String(), stderr.String())
	}
	if code == 0 && !r.Correct {
		t.Fatalf("%s trace %d: exit 0 with correct=false", name, trace)
	}
	if code != 0 && oracle == nil {
		t.Fatalf("%s trace %d: exit %d\nstderr:\n%s", name, trace, code, stderr.String())
	}
	return code, r
}

func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// Every workload prints every metric of BENCHMARK.json with its unit, in
// the timed and in the traced pass, and its exact counts repeat exactly
// between two traced runs at one seed.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			_, timed := smoke(t, w.Name, 0, nil)
			for _, m := range spec.EndToEnd {
				got, ok := timed.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("timed pass: metric %s printed as %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			_, a := smoke(t, w.Name, 1, nil)
			_, b := smoke(t, w.Name, 1, nil)
			for _, m := range spec.PerLayer {
				got, ok := a.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("traced pass: metric %s printed as %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					continue
				}
				if exactCount(m.Name) && got.Value != b.Metrics[m.Name].Value {
					t.Errorf("exact count %s: %v then %v at one seed", m.Name, got.Value, b.Metrics[m.Name].Value)
				}
			}
			if len(timed.Metrics) != len(spec.EndToEnd) || len(a.Metrics) != len(spec.PerLayer) {
				t.Errorf("printed %d and %d metrics, BENCHMARK.json lists %d and %d",
					len(timed.Metrics), len(a.Metrics), len(spec.EndToEnd), len(spec.PerLayer))
			}
		})
	}
}

// exactCount reports whether a per-layer metric is a count the program
// makes deterministically per seed, which must repeat exactly across runs.
func exactCount(name string) bool {
	switch {
	case strings.HasSuffix(name, "_per_run"), strings.HasSuffix(name, "_per_analysis"),
		strings.HasPrefix(name, "elect.phase_"), name == "analysiscache.misses",
		name == "analysiscache.hit_ratio", name == "iso.pruned_frac", name == "campaign.retries":
		return true
	}
	return false
}

// wrongOracle flips every verdict, so every checked output disagrees.
func wrongOracle(g *graph.Graph, homes []int) (verdict, error) {
	v, err := analysisOracle(g, homes)
	v.Solvable = !v.Solvable
	return v, err
}

// A deliberately wrong oracle fails the checks: the command reports the
// failures and exits nonzero.
func TestWrongOracleFailsTheCommand(t *testing.T) {
	for _, name := range []string{"adversary-sweep", "analyze-cold", "serve-hot"} {
		for _, trace := range []int{0, 1} {
			code, r := smoke(t, name, trace, wrongOracle)
			if code == 0 || r.Correct || r.Failed == 0 {
				t.Errorf("%s trace %d: wrong oracle gave exit %d, correct=%v, failed %d of %d",
					name, trace, code, r.Correct, r.Failed, r.Attempted)
			}
		}
	}
}
