package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"

	"repro/internal/adversary"
	"repro/internal/analysiscache"
	"repro/internal/campaign"
	"repro/internal/elect"
	"repro/internal/faults"
	"repro/internal/group"
	"repro/internal/iso"
	"repro/internal/labeling"
	"repro/internal/order"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/zoo"
)

// span is one timed call into a layer. Spans of one input share Input;
// Parent is 0 for a top-level step.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Input  int    `json:"input"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer records spans in memory. With on false it only times calls, which
// is the untraced ladder the tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	input int
	spans []span
	dur   map[string][]float64 // nanoseconds per span name
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, dur: map[string][]float64{}}
}

// do runs f as a span named name under parent and returns the span id and
// the call's duration.
func (t *tracer) do(name string, parent int, f func() error) (int, time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	d := end.Sub(start)
	if !t.on {
		return 0, d, err
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Input: t.input, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.dur[name] = append(t.dur[name], float64(d))
	return id, d, err
}

// write fills in every span's self time (its duration minus the part of it
// its children cover) and writes the spans as JSON lines.
func (t *tracer) write(path string) error {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of [start, end) covered by the union of the spans.
func covered(start, end int64, spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := start
	for _, s := range spans {
		lo, hi := max(s.Start, cur), min(s.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// counts are the exact work counts of one traced pass.
type counts struct {
	analyses, simRuns, faultRuns, netRuns     int64
	isoNodes, isoLeaves, isoPrunes, orderKeys int64
	moves, accesses, decisions                int64
	phaseMoves, phaseAccesses                 [telemetry.NumPhases]int64
	takeovers, crashed, retries               int64
	frames, frameBytes                        int64
	// move totals that turn timings into per-move costs
	goroutineMoves int64
	backendMoves   map[string]int64
	// campaign overhead: campaign time and the child steps' time, in ns
	campaignNS, childNS float64
}

// ladder is the state the traced pass shares across inputs.
type ladder struct {
	ctx    context.Context
	out    *outcome
	oracle *oracleCache
	cache  *analysiscache.Cache
	d      *daemon
	client *http.Client
	proto  sim.Protocol
	c      *counts
	checks bool      // whether this pass counts output checks (the first does)
	serve  []float64 // client latency minus server elapsed, ms
	// aside is the time spent on untimed steps that only gather counts;
	// it is left out of the pass times the tracing overhead compares.
	aside time.Duration
}

const ladderRunTimeout = 30 * time.Second

// tracedPass replays the workload's first inputs through the layer ladder:
// one traced pass whose exact counts are reported, then untraced and
// traced passes alternating until the measuring time is spent (at least one
// pair), which give the timings and the tracing overhead.
func tracedPass(ctx context.Context, o *options, wl workload) (*outcome, error) {
	k := wl.ladderInputs
	if o.smoke {
		k = 4
	}
	items, err := wl.items(o.seed, k)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	d, err := startDaemon(ctx, o.electd)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if wl.warm != nil {
		if err := wl.warm(ctx, o.seed, d); err != nil {
			return nil, err
		}
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	l := &ladder{ctx: ctx, out: out, oracle: newOracleCache(o.oracle),
		cache: analysiscache.New(analysiscache.Config{}), d: d, client: client,
		proto: elect.Elect(elect.Options{Ordering: order.Direct})}

	start := time.Now()
	tr := newTracer(start)
	before, err := d.metrics()
	if err != nil {
		return nil, err
	}
	first := &counts{backendMoves: map[string]int64{}}
	if err := l.pass(items, tr, true, true, first); err != nil {
		return nil, err
	}
	after, err := d.metrics()
	if err != nil {
		return nil, err
	}
	campaignUtil, serveUtil, err := l.probeUtil(items, time.Duration(float64(o.budget())*probeShare/2))
	if err != nil {
		return nil, err
	}
	timing := &counts{backendMoves: map[string]int64{}}
	var plain, traced time.Duration
	for pairs := 0; pairs == 0 || time.Since(start) < o.budget(); pairs++ {
		t0, a0 := time.Now(), l.aside
		if err := l.pass(items, tr, false, false, timing); err != nil {
			return nil, err
		}
		t1, a1 := time.Now(), l.aside
		if err := l.pass(items, tr, true, false, timing); err != nil {
			return nil, err
		}
		plain += t1.Sub(t0) - (a1 - a0)
		traced += time.Since(t1) - (l.aside - a1)
	}
	if err := tr.write(o.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	l.report(tr, first, timing, before, after, float64(traced)/float64(plain)-1)
	out.setValue("campaign.saturation_util", "ratio", campaignUtil, 0)
	out.setValue("serve.saturation_util", "ratio", serveUtil, 0)
	out.notef("%s: traced ladder over %d inputs, %d spans written to %s", o.workload, len(items), len(tr.spans), o.spans)
	return out, nil
}

const (
	// probeShare is the share of a traced run's measuring time spent on
	// the saturation probe, half on each of its two layers.
	probeShare = 0.2
	// probeCeilingRPS bounds the probe's request rate, to size the
	// requests prepared for it.
	probeCeilingRPS = 20000
)

// probeUtil measures the share of the CPU time the host did not steal that
// two layers keep busy at saturation, each for dur: campaign.ExecuteRuns
// with nproc workers over the ladder's campaign runs, then nproc
// connections posting the ladder's requests back to back (after the first
// pass, analyze requests hit the cache). A lock that blocks, serialized
// workers or a smaller electd pool lowers these figures where throughput
// per CPU-second does not move. Every output is checked as the ladder
// checks it.
func (l *ladder) probeUtil(items []item, dur time.Duration) (campaignUtil, serveUtil float64, err error) {
	runs := make([]campaign.Run, len(items))
	preds := make([]zoo.Prediction, len(items))
	for i, it := range items {
		runs[i] = ladderRun(i, it)
		if it.backend != "" {
			if preds[i], err = zoo.Predict(it.proto, it.inst.G, nil, it.inst.Homes); err != nil {
				return 0, 0, err
			}
		}
	}
	nproc := goruntime.NumCPU()
	ctx, cancel := context.WithTimeout(l.ctx, dur)
	defer cancel()
	h0 := readHostCPU()
	for ctx.Err() == nil {
		rep, err := campaign.ExecuteRunsContext(ctx, runs, campaign.Options{Workers: nproc, Cache: l.cache})
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return 0, 0, fmt.Errorf("campaign: %w", err)
		}
		for _, r := range rep.Results {
			if r.Outcome == "canceled" {
				continue
			}
			it := items[r.Index]
			if it.backend != "" {
				l.out.check(checkZooRun(r, preds[r.Index]))
				continue
			}
			want, err := l.oracle.get(it.inst)
			if err == nil {
				err = checkSweepRun(r, want)
			}
			l.out.check(err)
		}
	}
	campaignUtil = readHostCPU().since(h0).util()

	client := newClient(nproc)
	defer client.CloseIdleConnections()
	calls := make([]call, len(items))
	for i, it := range items {
		calls[i] = ladderCall(it)
	}
	reqs := make([]request, len(items)+int(probeCeilingRPS*dur.Seconds()))
	for i := range reqs {
		reqs[i] = calls[i%len(calls)].request
	}
	h0 = readHostCPU()
	samples, _, err := closedLoop(l.ctx, client, l.d.base, reqs, nproc, dur)
	if err != nil {
		return 0, 0, err
	}
	serveUtil = readHostCPU().since(h0).util()
	for i, smp := range samples {
		it := items[i%len(items)]
		want, err := l.oracle.get(it.inst)
		if err == nil {
			err = checkLadderCall(calls[i%len(calls)], smp, want, it.fault != "")
		}
		l.out.check(err)
	}
	return campaignUtil, serveUtil, nil
}

// pass runs every item through the ladder once. Only traced passes record
// timings and counts; the first pass also checks every output, so each is
// checked once however many passes run.
func (l *ladder) pass(items []item, tr *tracer, on, checks bool, c *counts) error {
	tr.on, l.checks, l.c = on, checks, c
	for i, it := range items {
		if err := l.ctx.Err(); err != nil {
			return err
		}
		tr.input = i + 1
		l.climb(i, it, tr)
	}
	return nil
}

// climb runs one input up the ladder: iso → analysis → zoo oracle → one sim
// run per engine → invariants → one fault run → the four runtime backends
// → one campaign run → one HTTP request.
func (l *ladder) climb(idx int, it item, tr *tracer) {
	c := l.c
	g, homes := it.inst.G, it.inst.Homes
	colors := elect.BlackColors(g.N(), homes)
	want, err := l.oracle.get(it.inst)
	if err != nil {
		l.checkOnce(err)
		return
	}

	// iso, under the cache key that wraps it.
	keyID, _, _ := tr.do("analysiscache.key", 0, func() error {
		analysiscache.CanonicalKey(g, homes)
		return nil
	})
	tr.do("iso.canonical", keyID, func() error { //nolint:errcheck // never fails
		iso.CanonicalWord(iso.FromGraph(g, colors))
		return nil
	})

	// The analysis, then its three parts again as child steps.
	isoBefore, keysBefore := iso.Stats(), order.KeysComputed()
	var an *elect.Analysis
	anID, _, err := tr.do("elect.analyze", 0, func() (err error) {
		an, err = elect.AnalyzeCtx(l.ctx, g, homes, order.Direct)
		return err
	})
	isoDelta, keys := iso.Stats().Sub(isoBefore), order.KeysComputed()-keysBefore
	if err == nil {
		err = checkAnalysis("ladder analysis "+it.inst.Name, an.Sizes, an.GCD, an.GCD == 1, want)
	}
	l.checkOnce(err)
	if tr.on {
		c.analyses++
		c.isoNodes += isoDelta.Nodes
		c.isoLeaves += isoDelta.Leaves
		c.isoPrunes += isoDelta.OrbitPrunes + isoDelta.PrefixPrunes
		c.orderKeys += keys
	}
	tr.do("order.classes", anID, func() error { //nolint:errcheck // checked through the analysis
		_, err := order.ComputeAndOrderCtx(l.ctx, g, colors, order.Direct)
		return err
	})
	if g.N() < order.LargeThreshold {
		tr.do("elect.cayley", anID, func() error { //nolint:errcheck // undecided is a verdict, not a failure
			_, _, err := elect.CayleyTranslationCount(g, colors, 0)
			if errors.Is(err, group.ErrUndecided) {
				return nil
			}
			return err
		})
		if g.IsSimple() {
			tr.do("labeling.thm21", anID, func() error { //nolint:errcheck // the analysis ignores its error too
				_, err := labeling.ExistsSymmetricLabeling(g, colors, 0)
				return err
			})
		}
	}
	if _, _, err := l.cache.Get(l.ctx, g, homes); err != nil {
		l.checkOnce(err)
	}

	spec := it.proto
	if spec == "" {
		spec = "dfs-election"
	}
	var pred zoo.Prediction
	_, _, err = tr.do("zoo.predict", 0, func() (err error) {
		pred, err = zoo.Predict(spec, g, nil, homes)
		return err
	})
	l.checkOnce(err)

	// One ELECT run per engine.
	var gres *sim.Result
	_, _, err = tr.do("sim.goroutine", 0, func() (err error) {
		gres, err = sim.Run(sim.Config{Graph: g, Homes: homes, Context: l.ctx, Seed: it.seed, Timeout: ladderRunTimeout}, l.proto)
		return err
	})
	l.checkOnce(checkSim("goroutine", it, gres, err, want))
	if err == nil && tr.on {
		c.goroutineMoves += gres.TotalMoves()
	}

	strategy := ladderStrategy(idx, it)
	// The scheduled run as a campaign makes it, timed; then the same run
	// again, untimed, recording its schedule and per-phase telemetry.
	classOf := adversary.AgentClasses(g, homes)
	schedCfg := func() (sim.Config, error) {
		sched, err := adversary.NewStrategy(strategy, it.seed, classOf)
		return sim.Config{Graph: g, Homes: homes, Context: l.ctx, Seed: it.seed, Timeout: ladderRunTimeout,
			Scheduler: sched}, err
	}
	var sres *sim.Result
	_, schedDur, err := tr.do("sim.sched", 0, func() error {
		cfg, err := schedCfg()
		if err == nil {
			sres, err = sim.Run(cfg, l.proto)
		}
		return err
	})
	l.checkOnce(checkSim("sched", it, sres, err, want))
	if err == nil && tr.on {
		c.simRuns++
		c.moves += sres.TotalMoves()
		c.accesses += sres.TotalAccesses()
		t0 := time.Now()
		rec, tRun := &sim.Schedule{}, telemetry.NewRun()
		cfg, err := schedCfg()
		if err == nil {
			cfg.Record, cfg.Telemetry = rec, tRun
			_, err = sim.Run(cfg, l.proto)
		}
		l.checkOnce(err)
		c.decisions += int64(rec.Len())
		tot := tRun.Totals()
		for p := range tot.Moves {
			c.phaseMoves[p] += tot.Moves[p]
			c.phaseAccesses[p] += tot.Accesses[p]
		}
		l.aside += time.Since(t0)
	}
	inv := elect.InvariantSpec{Expected: want.outcome(), Mode: elect.ModeStrong, M: g.M(), RatioBound: 40}
	var vios []elect.Violation
	tr.do("elect.invariants", 0, func() error { //nolint:errcheck // never fails
		vios = elect.CheckInvariants(sres, err, inv)
		return nil
	})
	l.checkOnce(violationErr("sched", it, vios))

	// One fault run: the item's fault, or one chosen by position.
	fault := it.fault
	if fault == "" {
		fault = faults.Strategies()[idx%len(faults.Strategies())]
	}
	var fres *sim.Result
	_, faultDur, ferr := tr.do("faults.run", 0, func() error {
		sched, err := adversary.NewStrategy(strategy, it.seed, classOf)
		if err != nil {
			return err
		}
		inj, err := faults.New(fault, it.seed, len(homes), homes)
		if err != nil {
			return err
		}
		fres, err = sim.Run(sim.Config{Graph: g, Homes: homes, Context: l.ctx, Seed: it.seed, Timeout: ladderRunTimeout,
			Scheduler: sched, Faults: inj}, l.proto)
		return err
	})
	inv.FaultsInjected = true
	l.checkOnce(violationErr("fault "+fault, it, elect.CheckInvariants(fres, ferr, inv)))
	if fres != nil && tr.on {
		c.faultRuns++
		c.takeovers += fres.Takeovers
		c.crashed += int64(fres.CrashedCount())
	}

	// The four runtime backends on the item's contract protocol.
	backendDur := map[string]time.Duration{}
	for _, b := range runtime.Backends() {
		var fl frameCounter
		var rres *runtime.Result
		_, dur, err := tr.do("runtime."+b, 0, func() error {
			p, err := runtime.FromSpec(spec)
			if err != nil {
				return err
			}
			rt, err := runtime.New(b)
			if err != nil {
				return err
			}
			if nw, ok := rt.(*runtime.Networked); ok {
				nw.FrameLog = &fl
			}
			rres, err = rt.Run(runtime.Config{Graph: g, Homes: homes, Seed: it.seed}, p)
			return err
		})
		backendDur[b] = dur
		if err == nil {
			err = violationErr(spec+" on "+b, it, zoo.Check(rres, pred))
		}
		l.checkOnce(err)
		if err == nil && tr.on {
			c.backendMoves[b] += rres.TotalMoves()
			if b == "networked" {
				c.netRuns++
				c.frames += fl.lines
				c.frameBytes += fl.bytes
			}
		}
	}

	// One campaign run on the input a child step above ran alone.
	run := ladderRun(idx, it)
	child := schedDur
	switch {
	case it.backend != "":
		child = backendDur[it.backend]
	case it.fault != "":
		child = faultDur
	}
	var rep *campaign.Report
	_, campDur, err := tr.do("campaign.run", 0, func() (err error) {
		rep, err = campaign.ExecuteRuns([]campaign.Run{run}, campaign.Options{Workers: 1, Cache: l.cache})
		return err
	})
	if err == nil {
		r := rep.Results[0]
		if it.backend != "" {
			err = checkZooRun(r, pred)
		} else {
			err = checkSweepRun(r, want)
		}
		if tr.on {
			c.retries += int64(r.Attempts - 1)
			c.campaignNS += float64(campDur)
			c.childNS += float64(child)
		}
	}
	l.checkOnce(err)

	l.request(it, want, tr)
}

// ladderStrategy is the adversary strategy of item it at position idx:
// its own, or one chosen by position where it has none.
func ladderStrategy(idx int, it item) string {
	if it.strategy != "" {
		return it.strategy
	}
	return adversary.Strategies()[idx%len(adversary.Strategies())]
}

// ladderRun is the campaign run of the ladder's campaign rung for item it
// at position idx: its adversary strategy and fault, or its backend and
// contract protocol.
func ladderRun(idx int, it item) campaign.Run {
	run := campaign.Run{Instance: it.inst.Name, G: it.inst.G, Homes: it.inst.Homes, Seed: it.seed,
		Protocol: campaign.ProtoElect, Strategy: ladderStrategy(idx, it), Fault: it.fault}
	if it.backend != "" {
		run.Strategy, run.Backend, run.ProtoSpec = "", it.backend, it.proto
	}
	return run
}

// ladderCall is item it as the HTTP request of the ladder's top rung.
func ladderCall(it item) call {
	if !it.elect {
		return analyzeCall(it.inst, it.inst)
	}
	body, _ := json.Marshal(serve.ElectRequest{InstanceSpec: it.inst.spec(), Seed: it.seed, //nolint:errcheck // plain values always encode
		Strategy: it.strategy, Fault: it.fault})
	return call{request: request{"/v1/elect", body}, endpoint: "elect", oracle: it.inst, name: it.inst.Name}
}

// request is the ladder's top rung: the item as one HTTP request to electd.
func (l *ladder) request(it item, want verdict, tr *tracer) {
	c := ladderCall(it)
	var s sample
	_, dur, _ := tr.do("serve.request", 0, func() error {
		s.status, s.body, s.err = post(l.ctx, l.client, l.d.base+c.path, c.body)
		return s.err
	})
	l.checkOnce(checkLadderCall(c, s, want, it.fault != ""))
	if s.err != nil || s.status != http.StatusOK || !tr.on {
		return
	}
	if el, ok := serverElapsed(s.body); ok {
		l.serve = append(l.serve, ms(float64(dur))-el)
	}
}

// serverElapsed is the time electd reports it spent on a request, from an
// analyze or an elect response body.
func serverElapsed(body []byte) (float64, bool) {
	var r struct {
		ElapsedMS float64 `json:"elapsed_ms"` // analyze
		Result    struct {
			ElapsedMS float64 `json:"elapsed_ms"`
		} `json:"result"` // elect
	}
	if json.Unmarshal(body, &r) != nil {
		return 0, false
	}
	return r.ElapsedMS + r.Result.ElapsedMS, true
}

// checkLadderCall checks a ladder request like checkCall; a fault run owes
// safety only, not the verdict's outcome.
func checkLadderCall(c call, s sample, want verdict, faulty bool) error {
	if s.err != nil || s.status != http.StatusOK || c.endpoint == "analyze" || !faulty {
		return checkCall(c, s, want)
	}
	var r serve.ElectResponse
	if err := json.Unmarshal(s.body, &r); err != nil {
		return fmt.Errorf("elect %s: %w", c.name, err)
	}
	if !r.Result.OK || len(r.Result.Violations) > 0 {
		return fmt.Errorf("elect %s: ok=%v violations %v", c.name, r.Result.OK, r.Result.Violations)
	}
	return nil
}

// checkOnce counts an output check during the checking pass only.
func (l *ladder) checkOnce(err error) {
	if l.checks {
		l.out.check(err)
	}
}

func checkSim(engine string, it item, res *sim.Result, err error, want verdict) error {
	if err != nil {
		return fmt.Errorf("%s sim %s seed %d: %w", engine, it.inst.Name, it.seed, err)
	}
	got := "mixed"
	switch {
	case elect.Elected(res, elect.ModeStrong):
		got = "leader"
	case res.AllUnsolvable():
		got = "unsolvable"
	}
	if got != want.outcome() {
		return fmt.Errorf("%s sim %s seed %d: outcome %s, gcd verdict owes %s", engine, it.inst.Name, it.seed, got, want.outcome())
	}
	return nil
}

func violationErr(what string, it item, vios []elect.Violation) error {
	if len(vios) == 0 {
		return nil
	}
	return fmt.Errorf("%s %s seed %d: violations %v", what, it.inst.Name, it.seed, vios)
}

// frameCounter counts the networked backend's control-frame log lines and
// bytes.
type frameCounter struct {
	lines, bytes int64
}

func (f *frameCounter) Write(p []byte) (int, error) {
	f.bytes += int64(len(p))
	for _, b := range p {
		if b == '\n' {
			f.lines++
		}
	}
	return len(p), nil
}

// report turns the passes into per-layer metrics: exact counts from the
// first traced pass, timings from every traced pass.
func (l *ladder) report(tr *tracer, first, timing *counts, before, after telemetry.Snapshot, overhead float64) {
	out := l.out
	per := func(total, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	p50 := func(name string, scale float64) float64 {
		xs := tr.dur[name]
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, 0.5) / scale
	}
	sum := func(name string) float64 {
		var t float64
		for _, x := range tr.dur[name] {
			t += x
		}
		return t
	}
	perMove := func(name string, moves int64) float64 {
		if moves == 0 {
			return 0
		}
		return sum(name) / float64(moves) / 1e3
	}
	// Timing sums cover the first pass too, so their move totals do.
	all := func(f func(*counts) int64) int64 { return f(first) + f(timing) }

	out.setValue("serve.overhead_ms_p50", "ms", quantile(l.serve, 0.5), len(l.serve))
	hits := after.Gauges["serve_cache_hits"] - before.Gauges["serve_cache_hits"]
	coal := after.Gauges["serve_cache_coalesced"] - before.Gauges["serve_cache_coalesced"]
	miss := after.Gauges["serve_cache_misses"] - before.Gauges["serve_cache_misses"]
	out.setValue("analysiscache.misses", "count", float64(miss), 0)
	if hits+coal+miss > 0 {
		out.setValue("analysiscache.hit_ratio", "ratio", float64(hits+coal)/float64(hits+coal+miss), 0)
	}
	out.setValue("analysiscache.key_us_p50", "us", p50("analysiscache.key", 1e3), 0)
	out.setValue("elect.analyze_ms_p50", "ms", p50("elect.analyze", 1e6), 0)
	out.setValue("order.classes_ms_p50", "ms", p50("order.classes", 1e6), 0)
	out.setValue("order.keys_per_analysis", "count", per(first.orderKeys, first.analyses), 0)
	out.setValue("iso.nodes_per_analysis", "count", per(first.isoNodes, first.analyses), 0)
	out.setValue("iso.leaves_per_analysis", "count", per(first.isoLeaves, first.analyses), 0)
	if first.isoNodes+first.isoPrunes > 0 {
		out.setValue("iso.pruned_frac", "ratio", float64(first.isoPrunes)/float64(first.isoNodes+first.isoPrunes), 0)
	} else {
		out.setValue("iso.pruned_frac", "ratio", 0, 0)
	}
	out.setValue("elect.cayley_ms_p50", "ms", p50("elect.cayley", 1e6), 0)
	out.setValue("labeling.thm21_ms_p50", "ms", p50("labeling.thm21", 1e6), 0)
	out.setValue("sim.sched.us_per_decision", "us", sum("sim.sched")/float64(all(func(c *counts) int64 { return c.decisions }))/1e3, 0)
	out.setValue("sim.sched.us_per_move", "us", perMove("sim.sched", all(func(c *counts) int64 { return c.moves })), 0)
	out.setValue("sim.sched.run_ms_p50", "ms", p50("sim.sched", 1e6), 0)
	out.setValue("sim.sched.decisions_per_run", "count", per(first.decisions, first.simRuns), 0)
	out.setValue("sim.goroutine.us_per_move", "us", perMove("sim.goroutine", all(func(c *counts) int64 { return c.goroutineMoves })), 0)
	out.setValue("sim.goroutine.run_ms_p50", "ms", p50("sim.goroutine", 1e6), 0)
	out.setValue("sim.moves_per_run", "count", per(first.moves, first.simRuns), 0)
	out.setValue("sim.accesses_per_run", "count", per(first.accesses, first.simRuns), 0)
	for _, p := range electPhases() {
		out.setValue("elect.phase_accesses."+p.String(), "count", per(first.phaseAccesses[p], first.simRuns), 0)
		if p != telemetry.PhaseNone {
			out.setValue("elect.phase_moves."+p.String(), "count", per(first.phaseMoves[p], first.simRuns), 0)
		}
	}
	out.setValue("elect.invariants_us_p50", "us", p50("elect.invariants", 1e3), 0)
	out.setValue("faults.run_ms_p50", "ms", p50("faults.run", 1e6), 0)
	out.setValue("faults.takeovers_per_run", "count", per(first.takeovers, first.faultRuns), 0)
	out.setValue("faults.crashed_per_run", "count", per(first.crashed, first.faultRuns), 0)
	camp, child := first.campaignNS+timing.campaignNS, first.childNS+timing.childNS
	if camp > 0 {
		out.setValue("campaign.overhead_frac", "ratio", 1-child/camp, 0)
	}
	out.setValue("campaign.retries", "count", float64(first.retries), 0)
	for _, b := range runtime.Backends() {
		out.setValue("runtime."+b+".run_ms_p50", "ms", p50("runtime."+b, 1e6), 0)
		out.setValue("runtime."+b+".us_per_move", "us", perMove("runtime."+b, first.backendMoves[b]+timing.backendMoves[b]), 0)
	}
	out.setValue("runtime.networked.frames_per_run", "count", per(first.frames, first.netRuns), 0)
	out.setValue("runtime.networked.bytes_per_run", "bytes", per(first.frameBytes, first.netRuns), 0)
	out.setValue("zoo.predict_us_p50", "us", p50("zoo.predict", 1e3), 0)
	out.setValue("trace.overhead_frac", "ratio", overhead, 0)
}
