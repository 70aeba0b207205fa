// Package adversary searches the schedule space of the asynchronous
// simulator for protocol-invariant violations.
//
// Theorem 3.1 claims correctness of Protocol ELECT on *every* asynchronous
// execution, but a seeded random-delay run exercises exactly one schedule.
// This package replays one (G, placement) instance under a sweep of
// scheduling strategies × seeds — each run serialized by a sim.Strategy
// scheduler so its decision log pins the execution down — and
// checks the elect invariants after every run: at most one leader,
// all-agree-or-all-report-failure, verdict equal to the independently
// computed gcd of the class sizes, and the O(r·|E|) move bound. Any
// violating run ships with its compact decision log, replayable bit-for-bit
// via sim.Replay (cmd/elect -replay, cmd/adversary -save-violations).
//
// The built-in strategies (see Strategies) probe qualitatively different
// corners: uniform random, fair round-robin, starvation of one agent,
// convoy bursts, global lockstep, and the greedy same-class attacker that
// keeps automorphism-equivalent agents maximally concurrent at the
// symmetry-breaking whiteboard races of AGENT-REDUCE / NODE-REDUCE.
package adversary

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/elect"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config describes one exploration: an instance, the strategies and seeds
// to sweep, and the invariant parameters.
type Config struct {
	// Instance names the (graph, homes) pair in reports (optional).
	Instance string
	G        *graph.Graph
	Homes    []int
	// Protocol is the protocol under test (default: ELECT with the direct
	// ordering). The invariant oracle assumes ELECT semantics — elect iff
	// the class-size gcd is 1 — so substituting another protocol only makes
	// sense for ELECT-equivalent variants (or deliberately broken ones, in
	// tests proving the checker fires).
	Protocol sim.Protocol
	// Strategies lists strategy names to sweep (default: all built-ins).
	Strategies []string
	// Faults lists fault strategy names (faults.Strategies vocabulary) to
	// cross with the scheduling strategies; the empty name "" is the
	// fault-free baseline. Empty means fault-free only. Runs with a fault
	// strategy are checked against the fault-aware invariant spec: crashes
	// may stall the run, but never two leaders and never a wrong leader.
	Faults []string
	// Seeds lists the seeds swept per strategy; each seed drives both the
	// simulation (colors, presentations, wake set) and the strategy's own
	// randomness (default 1..4).
	Seeds []int64
	// WakeAll starts every agent awake; otherwise each seed wakes a random
	// nonempty subset (more schedules, including sleeper-wakes-sleeper
	// chains).
	WakeAll bool
	// RatioBound is the constant c of the moves ≤ c·r·|E| invariant
	// (default 40, matching the campaign engine).
	RatioBound float64
	// Timeout is the per-run watchdog (default 60s).
	Timeout time.Duration
	// Workers bounds the pool running (strategy, seed) combinations in
	// parallel; each run is internally serialized by its scheduler
	// (default GOMAXPROCS).
	Workers int
	// KeepSchedules retains the decision log of every run in the report;
	// by default only violating runs carry their schedule (clean sweeps
	// stay small).
	KeepSchedules bool
	// Metrics, when set, receives live explorer counters:
	// adversary_runs_total, adversary_violations_total,
	// adversary_deadlocks_total, adversary_decisions_total and a per-run
	// decision histogram.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() (Config, error) {
	if c.G == nil || len(c.Homes) == 0 {
		return c, fmt.Errorf("adversary: need a graph and at least one home")
	}
	if c.Protocol == nil {
		c.Protocol = elect.Elect(elect.Options{})
	}
	if len(c.Strategies) == 0 {
		c.Strategies = Strategies()
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4}
	}
	if c.RatioBound == 0 {
		c.RatioBound = 40
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Instance == "" {
		c.Instance = fmt.Sprintf("n%d%v", c.G.N(), c.Homes)
	}
	return c, nil
}

// decisionBuckets shapes the adversary_run_decisions histogram.
var decisionBuckets = telemetry.ExpBuckets(16, 4, 8)

// Explore sweeps the instance under every (strategy, seed) combination and
// checks the protocol invariants after each run. It returns a report of all
// runs; it does not stop at the first violation (the point is the coverage
// of the whole sweep).
func Explore(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// The centralized oracle, computed once: expected verdict + classes for
	// the same-class strategy.
	an, err := elect.Analyze(cfg.G, cfg.Homes, order.Direct)
	if err != nil {
		return nil, fmt.Errorf("adversary: analyze %s: %w", cfg.Instance, err)
	}
	spec := elect.SpecFromAnalysis(an, cfg.G.M(), cfg.RatioBound)
	classOf := AgentClasses(cfg.G, cfg.Homes)

	rep := &Report{
		Instance: cfg.Instance,
		N:        cfg.G.N(), M: cfg.G.M(), R: len(cfg.Homes),
		Sizes: an.Sizes, GCD: an.GCD, Expected: spec.Expected,
		Strategies: cfg.Strategies, Seeds: cfg.Seeds, Faults: cfg.Faults,
	}
	faultAxis := cfg.Faults
	if len(faultAxis) == 0 {
		faultAxis = []string{""} // fault-free baseline only
	}
	type job struct {
		strat string
		fault string
		seed  int64
	}
	var jobs []job
	for _, s := range cfg.Strategies {
		for _, f := range faultAxis {
			for _, seed := range cfg.Seeds {
				jobs = append(jobs, job{s, f, seed})
			}
		}
	}
	rep.Runs = make([]RunRecord, len(jobs))

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rep.Runs[i] = exploreOne(cfg, jobs[i].strat, jobs[i].fault, jobs[i].seed, spec, classOf)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i := range rep.Runs {
		if len(rep.Runs[i].Violations) > 0 {
			rep.Violating++
		}
		if rep.Runs[i].Deadlock {
			rep.Deadlocks++
		}
		rep.Decisions += int64(rep.Runs[i].Decisions)
		rep.CrashedAgents += rep.Runs[i].Crashed
		rep.Takeovers += rep.Runs[i].Takeovers
	}
	return rep, nil
}

// exploreOne runs one (strategy, fault, seed) combination under recording
// and checks the invariants (the fault-aware spec when a fault strategy is
// set).
func exploreOne(cfg Config, strat, fault string, seed int64, spec elect.InvariantSpec, classOf []int) RunRecord {
	rec := RunRecord{Strategy: strat, Fault: fault, Seed: seed}
	strategy, err := NewStrategy(strat, seed, classOf)
	if err != nil {
		rec.Violations = []elect.Violation{{Code: elect.VioRunError, Detail: err.Error()}}
		return rec
	}
	var inj *faults.Injector
	if fault != "" {
		inj, err = faults.New(fault, seed, len(cfg.Homes), cfg.Homes)
		if err != nil {
			rec.Violations = []elect.Violation{{Code: elect.VioRunError, Detail: err.Error()}}
			return rec
		}
		spec.FaultsInjected = true
	}
	var log sim.Schedule
	start := time.Now()
	simCfg := sim.Config{
		Graph:     cfg.G,
		Homes:     cfg.Homes,
		Seed:      seed,
		WakeAll:   cfg.WakeAll,
		Timeout:   cfg.Timeout,
		Scheduler: strategy,
		Record:    &log,
	}
	if inj != nil {
		simCfg.Faults = inj
	}
	res, runErr := sim.Run(simCfg, cfg.Protocol)
	rec.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	rec.Decisions = log.Len()
	rec.Deadlock = runErr != nil && runErr == sim.ErrDeadlock
	if res != nil {
		rec.Moves = res.TotalMoves()
		rec.Accesses = res.TotalAccesses()
		rec.Crashed = res.CrashedCount()
		rec.Takeovers = res.Takeovers
		switch {
		case res.AgreedLeader():
			rec.Outcome = "leader"
		case res.AllUnsolvable():
			rec.Outcome = "unsolvable"
		default:
			rec.Outcome = "mixed"
		}
	}
	rec.Violations = elect.CheckInvariants(res, runErr, spec)
	if inj != nil {
		// The fault manifest: what was actually injected. Plans are tiny,
		// so every fault run carries its own (that is what makes a
		// violating run replayable without re-deriving the strategy).
		rec.FaultEvents = len(inj.Recorded().Events)
		rec.FaultPlan = inj.Recorded().EncodeString()
	}
	if len(rec.Violations) > 0 || cfg.KeepSchedules {
		rec.Schedule = EncodeScheduleString(&log)
	}
	m := cfg.Metrics
	m.Counter("adversary_runs_total").Inc()
	m.Counter("adversary_strategy_" + strat + "_runs").Inc()
	m.Counter("adversary_decisions_total").Add(int64(log.Len()))
	m.Histogram("adversary_run_decisions", decisionBuckets).Observe(int64(log.Len()))
	if len(rec.Violations) > 0 {
		m.Counter("adversary_violations_total").Inc()
	}
	if rec.Deadlock {
		m.Counter("adversary_deadlocks_total").Inc()
	}
	return rec
}

// StrategyClasses returns the classOf argument NewStrategy needs for the
// named strategy. Only same-class reads class values, so only it pays for
// AgentClasses' canonical searches; every other strategy gets one zero
// entry per agent (starve reads only the length, the agent count).
func StrategyClasses(name string, g *graph.Graph, homes []int) []int {
	if name == StratSameClass {
		return AgentClasses(g, homes)
	}
	return make([]int, len(homes))
}

// AgentClasses maps each agent to the automorphism-equivalence class index
// of its home node under the bicolored instance — the input the same-class
// strategy targets. Exported for callers (campaign, CLIs) that construct
// strategies directly via NewStrategy.
func AgentClasses(g *graph.Graph, homes []int) []int {
	classes := order.Classes(g, elect.BlackColors(g.N(), homes))
	nodeClass := make([]int, g.N())
	for ci, nodes := range classes {
		for _, v := range nodes {
			nodeClass[v] = ci
		}
	}
	out := make([]int, len(homes))
	for i, h := range homes {
		out[i] = nodeClass[h]
	}
	return out
}
