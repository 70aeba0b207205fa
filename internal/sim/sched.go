package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Strategy is a pluggable scheduling adversary. When sim.Config.Scheduler is
// set, the engine serializes the run: agents execute one at a time between
// sequence points (a move, a whiteboard access, a wait re-check), and the
// strategy picks which ready agent steps next. Because exactly one agent runs
// between picks, the whole simulation becomes a deterministic function of
// (Config.Seed, grant sequence) — which is what makes recorded schedules
// replayable (see Replay) and lets internal/adversary search the schedule
// space for invariant violations.
//
// The ready slice is sorted ascending, non-empty, and valid only during the
// call: the engine reuses its backing array for the next decision. Next must return one of its elements; an
// out-of-set pick is corrected to ready[0] by the engine (and counted as a
// divergence by Replay), so a buggy or fuzz-mutated strategy degrades to a
// legal schedule instead of wedging the run.
type Strategy interface {
	// Next picks the agent to grant the next step. step is the number of
	// grants issued so far in this run (0 for the first decision).
	Next(ready []int, step int) int
}

// StrategyFunc adapts a plain function to the Strategy interface.
type StrategyFunc func(ready []int, step int) int

// Next calls f.
func (f StrategyFunc) Next(ready []int, step int) int { return f(ready, step) }

// Schedule is the decision log of a strategy-driven run: the sequence of
// agent indices in grant order. Together with the run's Config (graph, homes,
// seed, protocol) it pins down the entire execution, so a violating run found
// by the adversary explorer can be replayed deterministically.
type Schedule struct {
	// Grants[i] is the agent granted the i-th step.
	Grants []int32
}

// Len returns the number of recorded grants.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Grants)
}

// Encode serializes the log compactly: one uvarint per grant. Small agent
// indices (the common case) cost one byte per decision.
func (s *Schedule) Encode() []byte {
	var buf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, s.Len()+8)
	for _, g := range s.Grants {
		n := binary.PutUvarint(buf[:], uint64(g))
		out = append(out, buf[:n]...)
	}
	return out
}

// DecodeSchedule parses an Encode-format decision log. It accepts any
// well-formed uvarint stream (fuzz-mutated logs decode to some schedule or
// fail cleanly) but rejects grants that cannot be agent indices.
func DecodeSchedule(data []byte) (*Schedule, error) {
	s := &Schedule{}
	for len(data) > 0 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("sim: truncated schedule encoding")
		}
		if v > 1<<30 {
			return nil, fmt.Errorf("sim: implausible agent index %d in schedule", v)
		}
		s.Grants = append(s.Grants, int32(v))
		data = data[n:]
	}
	return s, nil
}

// ReplayStrategy re-issues a recorded grant sequence. As long as the run it
// drives has the same configuration as the recording (graph, homes, seed,
// protocol, options), every wanted agent is ready when its turn comes and the
// replayed run is step-for-step identical to the recorded one (the replay
// round-trip test asserts identical event streams). When the log diverges —
// a mutated log, or a different binary — the wanted agent may not be ready;
// the strategy then skips that entry, falls back to the lowest ready agent,
// and counts the divergence. An exhausted log also falls back to lowest-ready.
type ReplayStrategy struct {
	log         []int32
	pos         int
	divergences int
}

// Replay returns a strategy that re-issues the recorded schedule.
func Replay(s *Schedule) *ReplayStrategy {
	if s == nil {
		return &ReplayStrategy{}
	}
	return &ReplayStrategy{log: s.Grants}
}

// Next implements Strategy.
func (r *ReplayStrategy) Next(ready []int, step int) int {
	for r.pos < len(r.log) {
		want := int(r.log[r.pos])
		r.pos++
		for _, a := range ready {
			if a == want {
				return a
			}
		}
		r.divergences++
	}
	return ready[0]
}

// Divergences reports how many log entries named an agent that was not ready
// (0 for a faithful replay of an unmodified recording).
func (r *ReplayStrategy) Divergences() int { return r.divergences }

// ErrDeadlock is returned by Run when a strategy-driven schedule reaches a
// state where every live agent is blocked in Wait — no grant can make
// progress. A correct protocol never deadlocks on a legal input, so this is
// itself a reportable protocol violation, not an adversary artifact:
// strategies only choose among ready agents and cannot manufacture one.
var ErrDeadlock = errors.New("sim: schedule deadlock (every live agent is blocked)")

// Per-agent scheduling states.
const (
	agReady   = iota // may be granted; also the turn holder's state while it runs
	agBlocked        // parked in Wait on an unsatisfied predicate
	agDone           // protocol returned
)

// turn serializes a strategy-driven run by handing one turn from agent to
// agent. Each agent parks on its own one-slot channel. The agent holding the
// turn runs until its next sequence point (step, block or exit); there it
// records its own state, asks the strategy for the next agent, records the
// grant, and sends it to that agent's channel — the slot lets it grant
// itself. There is one turn, so a channel never holds more than one grant
// and a send never blocks. Only the turn holder touches the fields below,
// and each grant is a channel send that happens before the grantee's next
// access, so nothing is locked.
//
// A schedule deadlock (no ready agent, some blocked), a timeout or a
// cancellation makes the turn abort: from then on it goes to the lowest
// live agent, whose pending step fails with ErrAborted. That agent unwinds,
// traces its outcome and exits, handing the turn to the next, so the parked
// agents unwind one at a time in agent order.
type turn struct {
	strategy Strategy
	rec      *Schedule
	stop     *atomic.Bool // the engine's abort flag, raised by Run on timeout or cancellation

	state     []int
	blockedOn []int // node an agBlocked agent is parked on
	ready     []int // the decision's ready set, reused by every pass
	grant     []chan struct{}
	nsteps    int
	aborting  bool
	deadlock  bool
}

func newTurn(n int, strategy Strategy, rec *Schedule, stop *atomic.Bool) *turn {
	t := &turn{
		strategy:  strategy,
		rec:       rec,
		stop:      stop,
		state:     make([]int, n),
		blockedOn: make([]int, n),
		ready:     make([]int, 0, n),
		grant:     make([]chan struct{}, n),
	}
	for i := range t.grant {
		t.grant[i] = make(chan struct{}, 1)
	}
	return t
}

// step is the sequence point: the agent ends its turn as ready and waits to
// be granted the next one.
func (t *turn) step(a *Agent) error { return t.yield(a, agReady) }

// block parks the agent on a board whose wait predicate is unsatisfied. It
// returns once the agent is granted a turn again after a write readied it
// (the caller re-checks the predicate), or fails on abort.
func (t *turn) block(a *Agent, node int) error {
	t.blockedOn[a.index] = node
	return t.yield(a, agBlocked)
}

// yield ends the agent's turn in state st and parks it until its next grant.
// An agent's first call holds no turn yet: every agent starts ready, and Run
// issues the first grant.
func (t *turn) yield(a *Agent, st int) error {
	if a.started {
		t.state[a.index] = st
		t.pass()
	}
	<-t.grant[a.index]
	a.started = true
	if t.aborting {
		return ErrAborted
	}
	return nil
}

// exit retires the agent (protocol returned or errored) and passes the turn.
func (t *turn) exit(a *Agent) {
	t.state[a.index] = agDone
	t.pass()
}

// notify readies every agent blocked on the node. The writer calls it while
// it holds the turn, so the next decision already sees the readied agents;
// they re-check their predicates when the strategy next grants them.
func (t *turn) notify(node int) {
	for a, st := range t.state {
		if st == agBlocked && t.blockedOn[a] == node {
			t.state[a] = agReady
		}
	}
}

// pass hands the turn on: to the strategy's pick among the ready agents or,
// once the run aborts, to the lowest live agent. With every agent done it
// hands it to nobody.
func (t *turn) pass() {
	if !t.aborting && t.stop.Load() {
		t.aborting = true
	}
	if !t.aborting {
		ready := t.ready[:0]
		blocked := 0
		for a, st := range t.state {
			switch st {
			case agReady:
				ready = append(ready, a)
			case agBlocked:
				blocked++
			}
		}
		if len(ready) > 0 {
			pick := t.strategy.Next(ready, t.nsteps)
			if !slices.Contains(ready, pick) {
				pick = ready[0]
			}
			t.nsteps++
			if t.rec != nil {
				t.rec.Grants = append(t.rec.Grants, int32(pick))
			}
			t.grant[pick] <- struct{}{}
			return
		}
		if blocked == 0 {
			return
		}
		// Nobody can be granted and nobody running will ever wake the
		// blocked agents: the schedule is wedged.
		t.deadlock, t.aborting = true, true
	}
	for a, st := range t.state {
		if st != agDone {
			t.grant[a] <- struct{}{}
			return
		}
	}
}
