package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	goruntime "runtime"
	"time"

	"repro/internal/serve"
)

// openLoopRate is each open-loop workload's fixed offered rate in requests
// per second: about a fifth of its saturation throughput on a 2-core host
// at the commit that added the benchmark, low enough that queueing does not
// amplify interference from other tenants of the host into the latencies.
var openLoopRate = map[string]float64{
	"analyze-cold": 60,
	"serve-hot":    120,
}

const (
	// fixedShare is the share of the measuring time spent at the fixed
	// rate; the rest measures saturation throughput.
	fixedShare = 0.65
	// fixedSegments is how many slices the fixed-rate phase is cut into
	// for its latency percentiles.
	fixedSegments = 8
	// saturationSegments is how many slices the saturation time is cut
	// into; ops_per_cpu_s is the median of their rates.
	saturationSegments = 8
)

// saturationCeiling bounds each open-loop workload's saturation throughput
// in requests per second, to size the requests generated for it.
var saturationCeiling = map[string]float64{
	"analyze-cold": 1500,
	"serve-hot":    5000,
}

// call is one prepared request of an open-loop workload plus what its
// check needs.
type call struct {
	request
	endpoint string   // "analyze" or "elect"
	oracle   instance // the instance whose verdict the answer must match
	name     string
}

// openPlan is an open-loop workload: a deterministic request stream, the
// set-up that warms a fresh daemon, and the oracle.
type openPlan struct {
	next   func(k int) []call
	warm   func(d *daemon) error
	oracle *oracleCache
}

func timedCold(ctx context.Context, o *options) (*outcome, error) {
	stream := newColdStream(o.seed)
	return timedOpen(ctx, o, openPlan{
		next: func(k int) []call {
			calls := make([]call, k)
			for i, in := range stream.take(k) {
				calls[i] = analyzeCall(in, in)
			}
			return calls
		},
		oracle: newOracleCache(o.oracle),
	})
}

func timedHot(ctx context.Context, o *options) (*outcome, error) {
	stream := newHotStream(o.seed)
	return timedOpen(ctx, o, openPlan{
		next: func(k int) []call {
			calls := make([]call, k)
			for i, r := range stream.take(k) {
				calls[i] = hotCall(r, stream.pool[r.pool])
			}
			return calls
		},
		warm:   func(d *daemon) error { return warmHot(ctx, o.seed, d) },
		oracle: newOracleCache(o.oracle),
	})
}

// warmHot analyzes every member of the seed's serve-hot pool once, so the
// analyze requests that follow are all cache hits.
func warmHot(ctx context.Context, seed int64, d *daemon) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	for _, in := range hotPool(seed) {
		c := analyzeCall(in, in)
		status, body, err := post(ctx, client, d.base+c.path, c.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			return fmt.Errorf("warm %s: %w", in.Name, err)
		}
	}
	return nil
}

func requests(cs []call) []request {
	reqs := make([]request, len(cs))
	for i, c := range cs {
		reqs[i] = c.request
	}
	return reqs
}

func analyzeCall(in, oracle instance) call {
	body, _ := json.Marshal(in.spec()) //nolint:errcheck // plain ints and slices always encode
	return call{request: request{"/v1/analyze", body}, endpoint: "analyze", oracle: oracle, name: in.Name}
}

func hotCall(r hotRequest, member instance) call {
	if !r.elect {
		return analyzeCall(r.inst, member)
	}
	body, _ := json.Marshal(serve.ElectRequest{InstanceSpec: r.inst.spec(), Seed: r.seed}) //nolint:errcheck // as above
	return call{request: request{"/v1/elect", body}, endpoint: "elect", oracle: member,
		name: fmt.Sprintf("%s seed %d", r.inst.Name, r.seed)}
}

// timedOpen measures an open-loop workload on a fresh daemon: latency at
// the fixed rate, then saturation throughput in the remaining time. Every
// response is checked against the oracle after the clock stops.
func timedOpen(ctx context.Context, o *options, p openPlan) (*outcome, error) {
	out := newOutcome()
	d, setups, err := daemons(ctx, o.electd, setupRepeats, p.warm)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	out.set("setup_s", "s", setups...)

	conns := goruntime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	rate := openLoopRate[o.workload]
	before, err := d.metrics()
	if err != nil {
		return nil, err
	}
	calls := p.next(int(rate * o.seconds * fixedShare))
	fixed := openLoop(ctx, client, d.base, requests(calls), rate, conns)
	samples := fixed
	after, err := d.metrics()
	if err != nil {
		return nil, err
	}
	st := summarize(fixed)
	// The fixed-rate phase, cut by due time into segments.
	lat := make([][]float64, fixedSegments)
	for i, s := range fixed {
		k := i * fixedSegments / len(fixed)
		lat[k] = append(lat[k], ms(float64(s.latency())))
	}
	if err := setLatency(o, out, lat); err != nil {
		return nil, err
	}
	delta := after.Delta(before)
	out.notef("%s: fixed rate %.0f/s, %d requests, %d failed, generator late p90 %.3fms, achieved %.1f/s",
		o.workload, rate, st.n, st.failed, st.lateP90, st.achievedRPS)
	out.notef("%s: shed %d, cache hits %d coalesced %d misses %d (gauges over the fixed-rate phase)", o.workload,
		delta.Counters["serve_shed_total"], after.Gauges["serve_cache_hits"]-before.Gauges["serve_cache_hits"],
		after.Gauges["serve_cache_coalesced"]-before.Gauges["serve_cache_coalesced"],
		after.Gauges["serve_cache_misses"]-before.Gauges["serve_cache_misses"])
	for _, e := range []string{"analyze", "elect"} {
		var el, srv []float64
		for i, s := range fixed {
			if calls[i].endpoint == e {
				el = append(el, ms(float64(s.latency())))
				if v, ok := serverElapsed(s.body); ok {
					srv = append(srv, v)
				}
			}
		}
		if len(el) > 0 && len(srv) > 0 {
			out.notef("%s: %s at the fixed rate: %d samples, p50 %.3fms, p90 %.3fms (%d beyond); in electd p50 %.3fms", o.workload, e,
				len(el), quantile(el, 0.5), quantile(el, 0.9), beyond(len(el), 0.9), quantile(srv, 0.5))
		}
	}

	// Saturation: nproc senders, each posting its next request as soon as
	// the previous one completes. The rate per CPU-second counts electd's
	// CPU time, which time stolen by the host does not inflate.
	seg := time.Duration(float64(o.budget()) * (1 - fixedShare) / saturationSegments)
	var rates, cpuRates, utils []float64
	for i := 0; i < saturationSegments; i++ {
		cs := p.next(int(saturationCeiling[o.workload] * seg.Seconds()))
		h0 := readHostCPU()
		c0, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		got, wall, err := closedLoop(ctx, client, d.base, requests(cs), conns, seg)
		if err != nil {
			return nil, err
		}
		c1, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		utils = append(utils, readHostCPU().since(h0).util())
		calls, samples = append(calls, cs[:len(got)]...), append(samples, got...)
		rates = append(rates, float64(len(got))/wall.Seconds())
		cpuRates = append(cpuRates, float64(len(got))/(c1-c0).Seconds())
	}
	out.set("ops_per_cpu_s", "ops/cpu_s", cpuRates...)
	out.notef("%s: saturation with %d connections; per segment, requests per electd CPU-second %s and per wall second %s, CPU utilization %s",
		o.workload, conns, fmtRates(cpuRates), fmtRates(rates), fmtRates(utils))

	t0 := time.Now()
	oracles := make([]instance, len(calls))
	for i, c := range calls {
		oracles[i] = c.oracle
	}
	p.oracle.fill(oracles, conns)
	for i, c := range calls {
		want, err := p.oracle.get(c.oracle)
		if err == nil {
			err = checkCall(c, samples[i], want)
		}
		out.check(err)
	}
	out.notef("%s: checked %d responses against the oracle in %.1fs", o.workload, len(calls), time.Since(t0).Seconds())
	return out, nil
}

// checkCall checks one response: status 200, and an analysis verdict or an
// election outcome that agrees with the oracle's verdict want.
func checkCall(c call, s sample, want verdict) error {
	if s.err != nil {
		return fmt.Errorf("%s %s: %w", c.endpoint, c.name, s.err)
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", c.endpoint, c.name, s.status, s.body)
	}
	if c.endpoint == "analyze" {
		var r serve.AnalyzeResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return fmt.Errorf("analyze %s: %w", c.name, err)
		}
		return checkAnalysis("analyze "+c.name, r.Sizes, r.GCD, r.Solvable, want)
	}
	var r serve.ElectResponse
	if err := json.Unmarshal(s.body, &r); err != nil {
		return fmt.Errorf("elect %s: %w", c.name, err)
	}
	switch res := r.Result; {
	case !res.OK || len(res.Violations) > 0:
		return fmt.Errorf("elect %s: ok=%v violations %v err %q", c.name, res.OK, res.Violations, res.Err)
	case res.Outcome != want.outcome():
		return fmt.Errorf("elect %s: outcome %s, gcd verdict owes %s", c.name, res.Outcome, want.outcome())
	}
	return nil
}
