package sim

import (
	"time"

	"repro/internal/telemetry"
)

// EventKind classifies a trace event.
type EventKind int

const (
	// EvMove is a traversal of one edge.
	EvMove EventKind = iota
	// EvWrite is a sign written on a whiteboard.
	EvWrite
	// EvErase is a sign removed from a whiteboard.
	EvErase
	// EvWake is the moment an agent leaves its initial sleep.
	EvWake
	// EvOutcome is the agent's final protocol outcome.
	EvOutcome
	// EvCrash is an injected crash-stop (tag "holding-lock" when the agent
	// died inside an exclusive access, abandoning the node's lock; tag
	// "torn-write" when the crash was coupled to a partial write).
	EvCrash
	// EvRecover is a surviving agent breaking an abandoned lock after its
	// stall budget ran out (tag "lock-takeover").
	EvRecover
	// EvTorn is a partial (torn) whiteboard write; the tag holds the prefix
	// that actually landed (possibly empty: the write was lost).
	EvTorn
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvMove:
		return "move"
	case EvWrite:
		return "write"
	case EvErase:
		return "erase"
	case EvWake:
		return "wake"
	case EvOutcome:
		return "outcome"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvTorn:
		return "torn"
	default:
		return "unknown"
	}
}

// Event is one observer-side trace record. Unlike protocol code, the
// observer sees global identities: the agent index and physical node ids.
// Events are emitted synchronously from inside the runtime (whiteboard
// events under the board lock), so tracers must be fast and must not call
// back into the simulation.
type Event struct {
	At    time.Duration // since the run started
	Agent int           // agent index (matches Result slices)
	Kind  EventKind
	Node  int    // physical node where the event happened (destination for moves)
	Tag   string // sign tag for EvWrite/EvErase; role string for EvOutcome
	// Phase is the protocol phase the emitting agent had declared via
	// Agent.SetPhase at the time of the event (PhaseNone before the first
	// declaration and for protocols that declare none).
	Phase telemetry.Phase
}

// Tracer receives trace events. Nil disables tracing.
type Tracer func(Event)

func (e *engine) trace(agent int, kind EventKind, node int, tag string) {
	if e.cfg.Tracer == nil {
		return
	}
	// Reading the agent's phase without synchronization is safe: every
	// event kind is emitted from the owning agent's goroutine (moves and
	// whiteboard events from protocol calls, wake/outcome from the agent's
	// run loop), the same goroutine that calls SetPhase.
	e.cfg.Tracer(Event{
		At:    time.Since(e.started),
		Agent: agent,
		Kind:  kind,
		Node:  node,
		Tag:   tag,
		Phase: e.agents[agent].phase,
	})
}
