package sim

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/graph"
)

// scriptInjector is a minimal FaultInjector for engine-level tests: it
// returns the scripted action for exact (op, agent, index) coordinates and
// records every point it was consulted at.
type scriptInjector struct {
	mu     sync.Mutex
	script map[[3]int]FaultAction // (op, agent, index) -> action
	points []FaultPoint
}

func (si *scriptInjector) Inject(p FaultPoint) FaultAction {
	si.mu.Lock()
	defer si.mu.Unlock()
	si.points = append(si.points, p)
	return si.script[[3]int{int(p.Op), p.Agent, p.Index}]
}

// pingPong: agent writes "ready" at home, then waits until both colors
// wrote it, then writes a long sign and finishes.
func pingPongProtocol(a *Agent) (Outcome, error) {
	if err := a.Access(func(b *Board) { b.Write("ready") }); err != nil {
		return Outcome{}, err
	}
	if _, err := a.Wait(func(ss Signs) bool { return ss.CountColors("ready") >= 1 }); err != nil {
		return Outcome{}, err
	}
	if err := a.Access(func(b *Board) { b.Write("long-sign-tag") }); err != nil {
		return Outcome{}, err
	}
	return Outcome{Role: RoleUnsolvable}, nil
}

func faultCfg(t *testing.T, inj FaultInjector, homes []int) Config {
	t.Helper()
	return Config{
		Graph:     graph.Cycle(6),
		Homes:     homes,
		Seed:      7,
		WakeAll:   true,
		Scheduler: StrategyFunc(func(ready []int, step int) int { return ready[0] }),
		Faults:    inj,
	}
}

func TestFaultsRequireScheduler(t *testing.T) {
	_, err := Run(Config{
		Graph:   graph.Cycle(4),
		Homes:   []int{0},
		WakeAll: true,
		Faults:  &scriptInjector{},
	}, pingPongProtocol)
	if err == nil {
		t.Fatal("Faults without Scheduler must be rejected")
	}
}

func TestCrashAtSequencePoint(t *testing.T) {
	inj := &scriptInjector{script: map[[3]int]FaultAction{
		{int(FaultStep), 0, 1}: {Crash: true},
	}}
	res, err := Run(faultCfg(t, inj, []int{0, 3}), pingPongProtocol)
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if !res.Crashed[0] || res.Crashed[1] {
		t.Fatalf("Crashed = %v, want agent 0 only", res.Crashed)
	}
	if !errors.Is(res.Errors[0], ErrCrashed) {
		t.Fatalf("agent 0 error = %v, want ErrCrashed", res.Errors[0])
	}
	if res.Errors[1] != nil || res.Outcomes[1].Role != RoleUnsolvable {
		t.Fatalf("survivor did not finish cleanly: err=%v role=%v", res.Errors[1], res.Outcomes[1].Role)
	}
	if res.CrashedCount() != 1 || res.Survived(0) || !res.Survived(1) {
		t.Fatalf("CrashedCount/Survived inconsistent: %v", res.Crashed)
	}
}

func TestCrashHoldingLockIsTakenOver(t *testing.T) {
	// Agent 0 lives at node 0; agent 1 at node 3 walks over to node 0 and
	// accesses its board. Agent 0 crashes holding the node-0 lock; agent 1
	// must stall for the takeover budget and then recover, not deadlock.
	visitor := func(a *Agent) (Outcome, error) {
		if err := a.Access(func(b *Board) { b.Write("start") }); err != nil {
			return Outcome{}, err
		}
		entry := Symbol{}
		for i := 0; i < 3; i++ { // walk 3 edges of the 6-cycle: node 3 -> 0 or 6->3->... either way a fixed walk
			var out Symbol
			for _, s := range a.Symbols() {
				if !s.IsZero() && s != entry {
					out = s
				}
			}
			var err error
			entry, err = a.Move(out)
			if err != nil {
				return Outcome{}, err
			}
		}
		if err := a.Access(func(b *Board) { b.Write("visited") }); err != nil {
			return Outcome{}, err
		}
		return Outcome{Role: RoleUnsolvable}, nil
	}
	inj := &scriptInjector{script: map[[3]int]FaultAction{
		{int(FaultStep), 0, 0}: {Crash: true, HoldLock: true},
	}}
	res, err := Run(faultCfg(t, inj, []int{0, 3}), visitor)
	if err != nil {
		t.Fatalf("run error (deadlock means takeover failed): %v", err)
	}
	if !res.Crashed[0] {
		t.Fatal("agent 0 did not crash")
	}
	if res.Takeovers < 1 {
		t.Fatalf("Takeovers = %d, want >= 1 (agent 1 must break the abandoned lock)", res.Takeovers)
	}
	if res.Errors[1] != nil {
		t.Fatalf("survivor error: %v", res.Errors[1])
	}
}

func TestTornWriteCrashesWriterAndLandsPrefix(t *testing.T) {
	var events []Event
	inj := &scriptInjector{script: map[[3]int]FaultAction{
		// Tear agent 0's second write ("long-sign-tag"), keep 4 bytes.
		{int(FaultWrite), 0, 1}: {Torn: true, Keep: 4},
	}}
	cfg := faultCfg(t, inj, []int{0, 3})
	cfg.Tracer = func(e Event) { events = append(events, e) }
	res, err := Run(cfg, pingPongProtocol)
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if !res.Crashed[0] {
		t.Fatal("torn write must crash-stop the writer")
	}
	var torn, crash bool
	for _, e := range events {
		if e.Agent == 0 && e.Kind == EvTorn && e.Tag == "long" {
			torn = true
		}
		if e.Agent == 0 && e.Kind == EvCrash && e.Tag == "torn-write" {
			crash = true
		}
		if e.Agent == 0 && e.Kind == EvWrite && e.Tag == "long-sign-tag" {
			t.Fatal("full tag landed despite the tear")
		}
	}
	if !torn || !crash {
		t.Fatalf("missing torn/crash trace events (torn=%v crash=%v)", torn, crash)
	}
}

func TestTornKeepIsClampedBelowFullTag(t *testing.T) {
	var events []Event
	inj := &scriptInjector{script: map[[3]int]FaultAction{
		{int(FaultWrite), 0, 0}: {Torn: true, Keep: 999},
	}}
	cfg := faultCfg(t, inj, []int{0, 3})
	cfg.Tracer = func(e Event) { events = append(events, e) }
	if _, err := Run(cfg, pingPongProtocol); err != nil {
		t.Fatalf("run error: %v", err)
	}
	for _, e := range events {
		if e.Agent == 0 && e.Kind == EvWrite && e.Tag == "ready" {
			t.Fatal("a torn write must never land the full tag")
		}
		if e.Agent == 0 && e.Kind == EvTorn && e.Tag != "read" {
			t.Fatalf("clamp kept %q, want %q", e.Tag, "read")
		}
	}
}

func TestStaleReadsOnlyDelay(t *testing.T) {
	inj := &scriptInjector{script: map[[3]int]FaultAction{
		{int(FaultRead), 1, 0}: {StallReads: 3},
	}}
	res, err := Run(faultCfg(t, inj, []int{0, 3}), pingPongProtocol)
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if res.CrashedCount() != 0 {
		t.Fatal("staleness must not crash anyone")
	}
	for i, e := range res.Errors {
		if e != nil {
			t.Fatalf("agent %d error: %v", i, e)
		}
	}
}

func TestFaultPointIndicesArePerAgentPerOp(t *testing.T) {
	inj := &scriptInjector{}
	if _, err := Run(faultCfg(t, inj, []int{0, 3}), pingPongProtocol); err != nil {
		t.Fatalf("run error: %v", err)
	}
	next := map[[2]int]int{} // (op, agent) -> expected next index
	for _, p := range inj.points {
		k := [2]int{int(p.Op), p.Agent}
		if p.Index != next[k] {
			t.Fatalf("point %v: index %d, want %d", p, p.Index, next[k])
		}
		next[k]++
	}
	if len(inj.points) == 0 {
		t.Fatal("no injection points consulted")
	}
}
