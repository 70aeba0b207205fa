package main

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/campaign"
	"repro/internal/zoo"
)

// setupRepeats is how many times a run sets up, for the median setup_s.
const setupRepeats = 25

// batchWindow is the most runs one campaign call is handed: the work list
// is expanded a window at a time, so a run cut off by the measuring
// deadline leaves at most one window of canceled records.
const batchWindow = 2048

// segments is how many equal slices of the measuring time a batch run is
// cut into; ops_per_cpu_s is the median of their rates.
const segments = 8

// batchPlan is a closed-batch workload: its work list, expanded a window
// at a time, the analysis cache its set-up warms, and the per-run check.
type batchPlan struct {
	first  []campaign.Run                      // window 0, expanded by the set-up
	window func(k int) ([]campaign.Run, error) // window k >= 1
	cache  *analysiscache.Cache
	check  func(campaign.RunResult) error
}

// timedBatch sets the plan up, then executes its work list with nproc
// workers in segments, each cut off by a deadline; runs still in flight at
// the deadline are canceled, not counted, and re-run in the next segment.
func timedBatch(ctx context.Context, o *options, setup func() (*batchPlan, error)) (*outcome, error) {
	out := newOutcome()
	plan, setups, err := setUps(setup)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", "s", setups...)

	workers := goruntime.NumCPU()
	seg := o.budget() / segments
	var rates, cpuRates, utils []float64
	lat := make([][]float64, segments)
	cur, k, pos := plan.first, 0, 0
	for s := 0; s < segments; s++ {
		segCtx, cancel := context.WithTimeout(ctx, seg)
		t0, c0, h0 := time.Now(), selfCPU(), readHostCPU()
		completed := 0
		for segCtx.Err() == nil {
			if pos == len(cur) {
				k, pos = k+1, 0
				var err error
				if cur, err = plan.window(k); err != nil {
					cancel()
					return nil, err
				}
			}
			rep, err := campaign.ExecuteRunsContext(segCtx, cur[pos:], campaign.Options{
				Workers: workers, Cache: plan.cache,
			})
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				cancel()
				return nil, fmt.Errorf("campaign: %w", err)
			}
			firstCanceled := len(rep.Results)
			for i, r := range rep.Results {
				if r.Outcome == "canceled" {
					firstCanceled = min(firstCanceled, i)
					continue
				}
				completed++
				lat[s] = append(lat[s], r.ElapsedMS)
				out.check(plan.check(r))
			}
			pos += firstCanceled
		}
		wall, cpu, host := time.Since(t0), selfCPU()-c0, readHostCPU().since(h0)
		cancel()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rates = append(rates, float64(completed)/wall.Seconds())
		cpuRates = append(cpuRates, float64(completed)/cpu.Seconds())
		utils = append(utils, host.util())
	}
	out.set("ops_per_cpu_s", "ops/cpu_s", cpuRates...)
	if err := setLatency(o, out, lat); err != nil {
		return nil, err
	}
	out.notef("%s: %d workers; per segment, runs per CPU-second %s and per wall second %s, CPU utilization %s",
		o.workload, workers, fmtRates(cpuRates), fmtRates(rates), fmtRates(utils))
	return out, nil
}

// setUps runs setup setupRepeats times and returns the last plan with the
// CPU time of each repeat, read from this process's CPU time. The set-ups
// run with GOMAXPROCS 1: the set-up is sequential, but the collector's
// workers would otherwise run beside it on other threads, and the kernel
// brings a running thread's CPU time up to date only at its next tick or
// switch, so a read taken while they run comes up short by a varying
// amount. With one P, the other threads are switched out, their time
// accounted, whenever the reading thread runs.
func setUps(setup func() (*batchPlan, error)) (*batchPlan, []float64, error) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	var plan *batchPlan
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// Every repeat starts from a freshly collected heap.
		plan = nil
		goruntime.GC()
		c0 := selfCPU()
		p, err := setup()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, (selfCPU() - c0).Seconds())
		plan = p
	}
	return plan, setups, nil
}

// setLatency records op_p50_ms as the median of the per-segment medians,
// so a burst of interference from other tenants of the host that spoils a
// few segments does not move it, and notes the mean and the 90th and 99th
// percentiles over all samples, each percentile only where at least ten
// samples lie beyond it.
func setLatency(o *options, out *outcome, segs [][]float64) error {
	var p50, all []float64
	for _, lat := range segs {
		if len(lat) == 0 {
			return fmt.Errorf("a measuring segment completed no operation")
		}
		p50 = append(p50, quantile(lat, 0.5))
		all = append(all, lat...)
	}
	out.set("op_p50_ms", "ms", p50...)
	var sum float64
	for _, x := range all {
		sum += x
	}
	out.notef("%s: latency over all %d samples: mean %.3fms", o.workload, len(all), sum/float64(len(all)))
	for _, q := range []float64{0.9, 0.99} {
		if b := beyond(len(all), q); b >= 10 {
			out.notef("%s: p%.0f %.3fms (%d samples beyond)", o.workload, 100*q, quantile(all, q), b)
		}
	}
	return nil
}

func fmtRates(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// warmCache returns a fresh analysis cache holding every instance of runs.
func warmCache(runs []campaign.Run) (*analysiscache.Cache, error) {
	cache := analysiscache.New(analysiscache.Config{})
	seen := map[string]bool{}
	for _, r := range runs {
		if seen[r.Instance] {
			continue
		}
		seen[r.Instance] = true
		if _, _, err := cache.Get(context.Background(), r.G, r.Homes); err != nil {
			return nil, fmt.Errorf("warm %s: %w", r.Instance, err)
		}
	}
	return cache, nil
}

func timedSweep(ctx context.Context, o *options) (*outcome, error) {
	oracle := newOracleCache(o.oracle)
	verdicts := map[string]verdict{}
	for _, in := range e4Instances() {
		v, err := oracle.get(in)
		if err != nil {
			return nil, err
		}
		verdicts[in.Name] = v
	}
	window := func(k int) ([]campaign.Run, error) {
		return sweepRuns(o.seed, k*batchWindow, batchWindow), nil
	}
	setup := func() (*batchPlan, error) {
		first, _ := window(0)
		cache, err := warmCache(first)
		if err != nil {
			return nil, err
		}
		return &batchPlan{first: first, window: window, cache: cache, check: func(r campaign.RunResult) error {
			return checkSweepRun(r, verdicts[r.Instance])
		}}, nil
	}
	return timedBatch(ctx, o, setup)
}

// checkSweepRun holds an ELECT campaign run to the gcd verdict: the run is
// ok with no invariant violation, and a fault-free run ends in the outcome
// the verdict owes.
func checkSweepRun(r campaign.RunResult, want verdict) error {
	id := fmt.Sprintf("%s seed %d strategy %s fault %q", r.Instance, r.Seed, r.Strategy, r.Fault)
	switch {
	case !r.OK:
		return fmt.Errorf("%s: ok=false (outcome %s, expected %s, err %q)", id, r.Outcome, r.Expected, r.Err)
	case len(r.Violations) > 0:
		return fmt.Errorf("%s: invariant violations %v", id, r.Violations)
	case r.Fault == "" && r.Outcome != want.outcome():
		return fmt.Errorf("%s: outcome %s, gcd verdict owes %s", id, r.Outcome, want.outcome())
	}
	return nil
}

func timedZoo(ctx context.Context, o *options) (*outcome, error) {
	fams, err := zooFamilies()
	if err != nil {
		return nil, err
	}
	window := func(k int) ([]campaign.Run, error) { return zooWindow(fams, o.seed, k) }
	// The oracle's predictions, one per (protocol, instance) cell; every
	// window crosses the same cells.
	cells, err := window(0)
	if err != nil {
		return nil, err
	}
	preds := map[string]zoo.Prediction{}
	for _, r := range cells {
		key := r.ProtoSpec + " " + r.Instance
		if _, ok := preds[key]; ok {
			continue
		}
		pred, err := zoo.Predict(r.ProtoSpec, r.G, nil, r.Homes)
		if err != nil {
			return nil, fmt.Errorf("predict %s: %w", key, err)
		}
		preds[key] = pred
	}
	setup := func() (*batchPlan, error) {
		first, err := window(0)
		if err != nil {
			return nil, err
		}
		cache, err := warmCache(first)
		if err != nil {
			return nil, err
		}
		return &batchPlan{first: first, window: window, cache: cache, check: func(r campaign.RunResult) error {
			return checkZooRun(r, preds[r.Protocol+" "+r.Instance])
		}}, nil
	}
	return timedBatch(ctx, o, setup)
}

// checkZooRun holds a backend run to zoo.Predict: the verdict matches and
// the campaign's own check (unique leader, winner identity) passed.
func checkZooRun(r campaign.RunResult, pred zoo.Prediction) error {
	id := fmt.Sprintf("%s %s on %s seed %d", r.Protocol, r.Instance, r.Backend, r.Seed)
	want := "unsolvable"
	if pred.Solvable {
		want = "leader"
	}
	switch {
	case r.Err != "":
		return fmt.Errorf("%s: %s", id, r.Err)
	case r.Outcome != want:
		return fmt.Errorf("%s: outcome %s, zoo.Predict owes %s", id, r.Outcome, want)
	case !r.OK || len(r.Violations) > 0:
		return fmt.Errorf("%s: ok=%v violations %v", id, r.OK, r.Violations)
	}
	return nil
}
