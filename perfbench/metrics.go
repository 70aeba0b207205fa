package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of a timed run, printed on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "ops/cpu_s"},
	{"op_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run, printed on every workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"serve.overhead_ms_p50", "ms"},
		{"analysiscache.misses", "count"},
		{"analysiscache.hit_ratio", "ratio"},
		{"analysiscache.key_us_p50", "us"},
		{"elect.analyze_ms_p50", "ms"},
		{"order.classes_ms_p50", "ms"},
		{"order.keys_per_analysis", "count"},
		{"iso.nodes_per_analysis", "count"},
		{"iso.leaves_per_analysis", "count"},
		{"iso.pruned_frac", "ratio"},
		{"elect.cayley_ms_p50", "ms"},
		{"labeling.thm21_ms_p50", "ms"},
		{"sim.sched.us_per_decision", "us"},
		{"sim.sched.us_per_move", "us"},
		{"sim.sched.run_ms_p50", "ms"},
		{"sim.sched.decisions_per_run", "count"},
		{"sim.goroutine.us_per_move", "us"},
		{"sim.goroutine.run_ms_p50", "ms"},
		{"sim.moves_per_run", "count"},
		{"sim.accesses_per_run", "count"},
	}
	for _, p := range electPhases() {
		defs = append(defs, metricDef{"elect.phase_accesses." + p.String(), "count"})
		if p != telemetry.PhaseNone {
			defs = append(defs, metricDef{"elect.phase_moves." + p.String(), "count"})
		}
	}
	defs = append(defs,
		metricDef{"elect.invariants_us_p50", "us"},
		metricDef{"faults.run_ms_p50", "ms"},
		metricDef{"faults.takeovers_per_run", "count"},
		metricDef{"faults.crashed_per_run", "count"},
		metricDef{"campaign.overhead_frac", "ratio"},
		metricDef{"campaign.retries", "count"},
		metricDef{"campaign.saturation_util", "ratio"},
		metricDef{"serve.saturation_util", "ratio"},
	)
	for _, b := range runtime.Backends() {
		defs = append(defs,
			metricDef{"runtime." + b + ".run_ms_p50", "ms"},
			metricDef{"runtime." + b + ".us_per_move", "us"})
	}
	return append(defs,
		metricDef{"runtime.networked.frames_per_run", "count"},
		metricDef{"runtime.networked.bytes_per_run", "bytes"},
		metricDef{"zoo.predict_us_p50", "us"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// electPhases are the ELECT phases whose whiteboard work is reported.
// COMPUTE & ORDER is left out: it is local computation with no moves or
// accesses, and moves outside any phase are zero by construction.
func electPhases() []telemetry.Phase {
	var ps []telemetry.Phase
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		if p != telemetry.PhaseOrder {
			ps = append(ps, p)
		}
	}
	return ps
}

// metric is one measured value plus the repeats it summarizes.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Repeats []float64 `json:"repeats,omitempty"`
	Median  float64   `json:"median,omitempty"`
	Spread  float64   `json:"spread,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int64
	failures          []string // a bounded sample of failed checks
	metrics           map[string]metric
	notes             []string // human-readable lines printed before the result
}

const maxFailureSample = 20

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// check counts one checked operation; a non-nil err counts it as failed.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < maxFailureSample {
			o.failures = append(o.failures, err.Error())
		}
	}
}

// set records a metric whose value is the median of repeats.
func (o *outcome) set(name, unit string, repeats ...float64) {
	m := metric{Unit: unit, Repeats: repeats, Samples: len(repeats)}
	if len(repeats) > 0 {
		m.Median = median(repeats)
		m.Value = m.Median
		m.Spread = spread(repeats)
	}
	if len(repeats) == 1 {
		m.Repeats, m.Samples = nil, 0
	}
	o.metrics[name] = m
}

// setValue records a metric with a value that is not a median of repeats,
// such as a percentile over pooled samples.
func (o *outcome) setValue(name, unit string, v float64, samples int) {
	o.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// complete verifies that every wanted metric was measured with its unit and
// drops any other.
func (o *outcome) complete(want []metricDef) error {
	kept := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		kept[d.name] = m
	}
	o.metrics = kept
	return nil
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func (o *outcome) result() result {
	r := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]resultMetric, len(o.metrics))}
	for name, m := range o.metrics {
		r.Metrics[name] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	return r
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// beyond is how many of n samples lie beyond the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// spread is the interquartile range of xs over their median, with the
// quartiles of Python's statistics.quantiles(xs, n=4) (exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := int(math.Floor(h))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

func ms(d float64) float64 { return d / 1e6 } // nanoseconds to milliseconds
