package adversary

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/elect"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// sweepInstances are the seed instances of the exploration tests: solvable
// and unsolvable, symmetric and asymmetric placements.
var sweepInstances = []struct {
	name  string
	g     *graph.Graph
	homes []int
}{
	{"path4-adjacent", graph.Path(4), []int{0, 1}},              // gcd 1 → leader
	{"path5-mirror", graph.Path(5), []int{0, 2, 4}},             // classes {2,1}, gcd 1 → leader
	{"cycle6-antipodal", graph.Cycle(6), []int{0, 3}},           // one class of 2 → unsolvable
	{"star4-leaves", graph.Star(4), []int{1, 2, 3}},             // one class of 3 → unsolvable
	{"complete4-pair", graph.Complete(4), []int{0, 1}},          // one class of 2 → unsolvable
	{"prism3-asym", graph.Prism(3), []int{0, 1, 2}},             // one triangle fully occupied
	{"grid23-corner", graph.Grid(2, 3), []int{0}},               // single agent → leader
	{"cycle5-adjacent", graph.Cycle(5), []int{0, 1}},            // reflection-symmetric pair
	{"bipartite23", graph.CompleteBipartite(2, 3), []int{0, 2}}, // sides differ, gcd 1
}

// TestExploreSeedInstancesClean is the acceptance sweep: every built-in
// strategy × several seeds over the seed instances, expecting zero invariant
// violations and outcomes matching the oracle on every single run.
func TestExploreSeedInstancesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full adversary sweep in -short mode")
	}
	for _, inst := range sweepInstances {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			reg := telemetry.NewRegistry()
			rep, err := Explore(Config{
				Instance: inst.name,
				G:        inst.g,
				Homes:    inst.homes,
				Seeds:    []int64{1, 2, 3},
				Timeout:  30 * time.Second,
				Metrics:  reg,
			})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if want := len(Strategies()) * 3; len(rep.Runs) != want {
				t.Fatalf("got %d runs, want %d", len(rep.Runs), want)
			}
			if rep.Violating != 0 || rep.Deadlocks != 0 {
				t.Fatalf("violations on seed instance:\n%s", rep.Render())
			}
			for _, run := range rep.Runs {
				if run.Outcome != rep.Expected {
					t.Fatalf("[%s seed %d] outcome %q, oracle expects %q",
						run.Strategy, run.Seed, run.Outcome, rep.Expected)
				}
				if run.Decisions == 0 {
					t.Fatalf("[%s seed %d] empty decision log", run.Strategy, run.Seed)
				}
				if run.Schedule != "" {
					t.Fatalf("[%s seed %d] clean run kept its schedule", run.Strategy, run.Seed)
				}
			}
			if got := reg.Counter("adversary_runs_total").Value(); got != int64(len(rep.Runs)) {
				t.Fatalf("adversary_runs_total = %d, want %d", got, len(rep.Runs))
			}
		})
	}
}

// brokenElect is the deliberately broken variant: every agent crowns itself
// without any exploration. The checker must catch it on every schedule.
func brokenElect(a *sim.Agent) (sim.Outcome, error) {
	return sim.Outcome{Role: sim.RoleLeader, Leader: a.Color()}, nil
}

// TestExploreCatchesBrokenProtocol proves the invariant checker fires: the
// self-crowning protocol produces multiple-leaders (and no-agreement)
// violations on every run of the sweep, and each violating run carries a
// replayable schedule.
func TestExploreCatchesBrokenProtocol(t *testing.T) {
	rep, err := Explore(Config{
		Instance: "broken",
		G:        graph.Cycle(6),
		Homes:    []int{0, 3},
		Protocol: brokenElect,
		Seeds:    []int64{1, 2},
		WakeAll:  true,
		Timeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Violating != len(rep.Runs) {
		t.Fatalf("want every run violating, got %d/%d:\n%s", rep.Violating, len(rep.Runs), rep.Render())
	}
	for _, run := range rep.Violations() {
		found := false
		for _, v := range run.Violations {
			if v.Code == elect.VioMultipleLeaders {
				found = true
			}
		}
		if !found {
			t.Fatalf("[%s seed %d] missing %s: %v", run.Strategy, run.Seed, elect.VioMultipleLeaders, run.Violations)
		}
		if run.Schedule == "" {
			t.Fatalf("[%s seed %d] violating run has no schedule", run.Strategy, run.Seed)
		}
		if _, err := DecodeScheduleString(run.Schedule); err != nil {
			t.Fatalf("[%s seed %d] undecodable schedule: %v", run.Strategy, run.Seed, err)
		}
	}
}

// TestExploreViolatingRunReplays closes the loop: take a violating run's
// schedule out of the report, replay it with sim.Replay, and observe the same
// violation again with zero scheduling divergences.
func TestExploreViolatingRunReplays(t *testing.T) {
	g, homes := graph.Cycle(6), []int{0, 3}
	rep, err := Explore(Config{
		G: g, Homes: homes,
		Protocol:   brokenElect,
		Strategies: []string{StratRandom},
		Seeds:      []int64{7},
		WakeAll:    true,
		Timeout:    30 * time.Second,
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Schedule == "" {
		t.Fatalf("unexpected report: %+v", rep.Runs)
	}
	sched, err := DecodeScheduleString(rep.Runs[0].Schedule)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	replay := sim.Replay(sched)
	res, runErr := sim.Run(sim.Config{
		Graph: g, Homes: homes, Seed: 7, WakeAll: true,
		Timeout: 30 * time.Second, Scheduler: replay,
	}, brokenElect)
	an, err := elect.Analyze(g, homes, order.Direct)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	vs := elect.CheckInvariants(res, runErr, elect.SpecFromAnalysis(an, g.M(), 40))
	if len(vs) == 0 {
		t.Fatalf("replayed run shows no violation")
	}
	if d := replay.Divergences(); d != 0 {
		t.Fatalf("replay diverged %d times", d)
	}
}

// TestScheduleFileRoundTrip covers the replay artifact serialization.
func TestScheduleFileRoundTrip(t *testing.T) {
	sched := &sim.Schedule{Grants: []int32{0, 1, 1, 0, 2}}
	f := &ScheduleFile{
		Family: "cycle", Size: 6, Homes: []int{0, 3},
		Seed: 7, Protocol: "elect", Strategy: StratRandom,
		Schedule: EncodeScheduleString(sched),
	}
	path := filepath.Join(t.TempDir(), "violation.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := LoadScheduleFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Family != f.Family || got.Size != f.Size || got.Seed != f.Seed ||
		got.Protocol != f.Protocol || got.Strategy != f.Strategy ||
		got.Schedule != f.Schedule || len(got.Homes) != len(f.Homes) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
	dec, err := got.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Grants) != len(sched.Grants) {
		t.Fatalf("grants %v, want %v", dec.Grants, sched.Grants)
	}
	for i := range dec.Grants {
		if dec.Grants[i] != sched.Grants[i] {
			t.Fatalf("grants %v, want %v", dec.Grants, sched.Grants)
		}
	}
}

// TestNewStrategyUnknown checks the self-explanatory error path.
func TestNewStrategyUnknown(t *testing.T) {
	if _, err := NewStrategy("nope", 1, nil); err == nil {
		t.Fatal("want error for unknown strategy")
	}
	for _, name := range Strategies() {
		if _, err := NewStrategy(name, 1, []int{0, 0}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestStrategyClassesDecideAlike: a strategy built from StrategyClasses
// makes the same picks as one built from the full AgentClasses map, on
// every seed instance and strategy, so the class computation is skipped
// only where no decision reads it.
func TestStrategyClassesDecideAlike(t *testing.T) {
	for _, in := range sweepInstances {
		full := AgentClasses(in.g, in.homes)
		r := len(in.homes)
		for _, name := range Strategies() {
			for seed := int64(1); seed <= 3; seed++ {
				want, err := NewStrategy(name, seed, full)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewStrategy(name, seed, StrategyClasses(name, in.g, in.homes))
				if err != nil {
					t.Fatal(err)
				}
				ready := make([]int, 0, r)
				for step := 0; step < 200; step++ {
					ready = ready[:0]
					for a := 0; a < r; a++ {
						if (step*7+a*3)%(a+2) != 0 {
							ready = append(ready, a)
						}
					}
					if len(ready) == 0 {
						ready = append(ready, step%r)
					}
					if w, g := want.Next(ready, step), got.Next(ready, step); w != g {
						t.Fatalf("%s %s seed %d step %d: picked %d, want %d", in.name, name, seed, step, g, w)
					}
				}
			}
		}
	}
}

// TestExploreFaultAxis crosses scheduling strategies with fault strategies:
// the sweep must stay safety-clean (fault-aware spec), every fault run must
// carry its fault manifest, and at least one run must actually crash an
// agent so the axis is known to be live.
func TestExploreFaultAxis(t *testing.T) {
	rep, err := Explore(Config{
		Instance:   "star4-fault",
		G:          graph.Star(4),
		Homes:      []int{1, 2},
		Strategies: []string{"random", "same-class"},
		Faults:     []string{"crash-frontrunner", "crash-lockholder"},
		Seeds:      []int64{1, 2, 3},
		Timeout:    30 * time.Second,
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if want := 2 * 2 * 3; len(rep.Runs) != want {
		t.Fatalf("got %d runs, want %d", len(rep.Runs), want)
	}
	if rep.Violating != 0 {
		t.Fatalf("fault sweep violated safety:\n%s", rep.Render())
	}
	if rep.CrashedAgents == 0 {
		t.Fatal("no agent ever crashed — fault axis not wired through")
	}
	for _, run := range rep.Runs {
		if run.Fault == "" {
			t.Fatalf("[%s seed %d] missing fault name", run.Strategy, run.Seed)
		}
		if run.FaultPlan == "" {
			t.Fatalf("[%s+%s seed %d] missing fault plan", run.Strategy, run.Fault, run.Seed)
		}
		if run.Crashed != run.FaultEvents-countStale(t, run.FaultPlan) {
			t.Fatalf("[%s+%s seed %d] crashed=%d but plan has %d non-stale events",
				run.Strategy, run.Fault, run.Seed, run.Crashed, run.FaultEvents-countStale(t, run.FaultPlan))
		}
	}
}

// countStale decodes a manifest and counts its stale-read events (the only
// kind that does not crash its target).
func countStale(t *testing.T, planB64 string) int {
	t.Helper()
	p, err := faults.DecodePlanString(planB64)
	if err != nil {
		t.Fatalf("bad fault plan: %v", err)
	}
	n := 0
	for _, e := range p.Events {
		if e.Kind == faults.KindStale {
			n++
		}
	}
	return n
}
