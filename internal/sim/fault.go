package sim

import (
	"errors"

	"repro/internal/telemetry"
)

// ErrCrashed is the terminal error of an agent that was crash-stopped by an
// injected fault. It is recorded in Result.Errors for the crashed agent but
// is never promoted to the run-level error: a crash is an injected event, not
// a protocol failure, and the surviving agents' outcomes remain checkable.
var ErrCrashed = errors.New("sim: agent crash-stopped (injected fault)")

// FaultOp classifies the kind of operation at which a fault injector is
// consulted. The three operation classes each carry their own per-agent
// index counter, so a fault plan can name an injection point exactly
// ("agent 2's 17th sequence point") and a replay of the same schedule hits
// the same point again.
type FaultOp uint8

// The injection-point operation classes.
const (
	// FaultStep is a scheduler sequence point: the top of every Move,
	// Access and Wait (and of every injected staleness stall).
	FaultStep FaultOp = iota
	// FaultWrite is a whiteboard sign write about to land.
	FaultWrite
	// FaultRead is a whiteboard predicate check inside Wait, just before
	// the signs are snapshotted.
	FaultRead

	numFaultOps
)

// String names the operation class.
func (op FaultOp) String() string {
	switch op {
	case FaultStep:
		return "step"
	case FaultWrite:
		return "write"
	case FaultRead:
		return "read"
	default:
		return "unknown"
	}
}

// FaultPoint identifies one injection opportunity presented to a
// FaultInjector. Points are observer-side: they expose global agent indices
// and physical node ids, like trace events.
type FaultPoint struct {
	// Op is the operation class of this point.
	Op FaultOp
	// Agent is the acting agent's index.
	Agent int
	// Index is the 0-based count of this agent's previous points of the
	// same operation class. Under the deterministic Scheduler the pair
	// (Op, Agent, Index) names the point reproducibly across replays,
	// which is what makes fault plans byte-replayable.
	Index int
	// Node is the agent's current node (the written node for FaultWrite).
	Node int
	// Tag is the sign tag being written (FaultWrite points only).
	Tag string
	// Phase is the protocol phase the agent had declared via SetPhase when
	// it hit this point — phase-targeted strategies (crash during
	// NODE-REDUCE) key on it.
	Phase telemetry.Phase
}

// FaultAction is an injector's decision at a point. The zero value injects
// nothing and is the common case.
type FaultAction struct {
	// Crash crash-stops the agent at this point: its protocol unwinds with
	// ErrCrashed, it performs no further operations, and its exit passes
	// the turn on so scheduling continues among the survivors.
	Crash bool
	// HoldLock, together with Crash (or Torn), additionally abandons the
	// current node's whiteboard lock — the crash happened inside the
	// agent's exclusive access. Surviving agents that try to use that
	// board stall for three sequence points in all, then break the lock
	// and take over (counted in Result.Takeovers).
	HoldLock bool
	// Torn, at a FaultWrite point, makes the write partial: only the first
	// Keep bytes of the tag land on the board, and the writer crash-stops
	// as soon as its current access ends (crash-during-write semantics —
	// a torn sign is only ever left behind by a dead agent). Keep is
	// clamped to [0, len(tag)-1]; Keep 0 loses the write entirely.
	Torn bool
	// Keep is the prefix length kept by a torn write.
	Keep int
	// StallReads, at a FaultRead point, injects bounded transient read
	// staleness: the agent consumes that many extra sequence points before
	// its predicate sees the board, so its view lags the writes other
	// agents performed in between. In the asynchronous model this is
	// indistinguishable from the agent being slow, so it can never break
	// safety — it probes liveness under delayed visibility.
	StallReads int
}

// FaultInjector decides, deterministically, what fault (if any) to inject at
// each point. Implementations must be pure functions of the point sequence
// (plus their own seed): the engine consults the injector from agent
// goroutines one at a time under the serializing Scheduler, which Config
// validation requires whenever Faults is set.
type FaultInjector interface {
	// Inject is called once per injection point, in schedule order.
	Inject(p FaultPoint) FaultAction
}

// faultsOn reports whether this run injects faults.
func (e *engine) faultsOn() bool { return e.cfg.Faults != nil }

// injectAt consults the injector at a point of the given class and advances
// the agent's per-class counter.
func (e *engine) injectAt(a *Agent, op FaultOp, node int, tag string) FaultAction {
	act := e.cfg.Faults.Inject(FaultPoint{
		Op:    op,
		Agent: a.index,
		Index: a.fseq[op],
		Node:  node,
		Tag:   tag,
		Phase: a.phase,
	})
	a.fseq[op]++
	return act
}

// takeoverAfter is the stall budget of an abandoned whiteboard lock: how
// many sequence points surviving agents collectively burn against a dead
// agent's lock before breaking it and taking over.
const takeoverAfter = 3

// crash retires the agent as crash-stopped; with holdLock it also abandons
// the agent's current board. Faults run only under the Scheduler, so the
// caller holds the turn and touches the board without its lock.
func (e *engine) crash(a *Agent, holdLock bool) error {
	e.crashed[a.index] = true
	detail := ""
	if holdLock {
		e.abandon(e.boards[a.node])
		detail = "holding-lock"
	}
	e.trace(a.index, EvCrash, a.node, detail)
	return ErrCrashed
}

// abandon marks the board's lock abandoned by a crashed agent.
func (e *engine) abandon(wb *whiteboard) {
	wb.abandoned = true
	wb.stallLeft = takeoverAfter
}

// passAbandoned makes the agent negotiate an abandoned lock on the board:
// each attempt burns one sequence point and decrements the stall budget;
// when the budget is gone the agent breaks the lock and takes over. The
// stall consumes real scheduler steps, so recovery is deterministic and
// shows up in the decision log like any other work. Without faults no board
// is ever abandoned and this returns at once.
func (e *engine) passAbandoned(a *Agent, wb *whiteboard) error {
	for wb.abandoned {
		if wb.stallLeft <= 0 {
			wb.abandoned = false
			e.takeovers++
			e.trace(a.index, EvRecover, a.node, "lock-takeover")
			return nil
		}
		wb.stallLeft--
		if err := e.delay(a); err != nil {
			return err
		}
	}
	return nil
}

// faultRead runs the FaultRead injection point before a Wait predicate
// check: it may crash the agent or stall it for a bounded number of extra
// sequence points (each stall step is itself a FaultStep point, so crashes
// can land inside a stall too).
func (e *engine) faultRead(a *Agent) error {
	if !e.faultsOn() {
		return nil
	}
	act := e.injectAt(a, FaultRead, a.node, "")
	if act.Crash {
		return e.crash(a, act.HoldLock)
	}
	for i := 0; i < act.StallReads; i++ {
		if err := e.delay(a); err != nil {
			return err
		}
	}
	return nil
}
