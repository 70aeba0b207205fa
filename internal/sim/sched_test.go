package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// tourProtocol exercises every scheduler sequence point: each agent writes a
// start sign at home, tours the whole ring writing visit signs, then waits at
// home until every color's visit sign has arrived.
func tourProtocol(a *Agent) (Outcome, error) {
	if err := a.Access(func(b *Board) { b.Write("start") }); err != nil {
		return Outcome{}, err
	}
	entry := Symbol{}
	n := 0
	for {
		// Leave through a port that is not the one we entered by (on a cycle
		// this walks consistently around the ring).
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
		n++
		if err := a.Access(func(b *Board) { b.Write("visit") }); err != nil {
			return Outcome{}, err
		}
		if n == 6 { // full tour of the 6-cycle, back home
			break
		}
	}
	_, err := a.Wait(func(ss Signs) bool { return ss.CountColors("visit") >= 2 })
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Role: RoleUnsolvable}, nil
}

// eventRecorder collects the deterministic projection of a trace (everything
// but the wall-clock timestamps).
type eventRecorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *eventRecorder) trace(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.At = 0
	r.events = append(r.events, e)
}

func runScheduled(t *testing.T, strat Strategy, rec *Schedule) []Event {
	t.Helper()
	er := &eventRecorder{}
	res, err := Run(Config{
		Graph:     graph.Cycle(6),
		Homes:     []int{0, 3},
		Seed:      7,
		WakeAll:   true,
		Timeout:   30 * time.Second,
		Scheduler: strat,
		Record:    rec,
		Tracer:    er.trace,
	}, tourProtocol)
	if err != nil {
		t.Fatalf("scheduled run failed: %v", err)
	}
	if !res.AllUnsolvable() {
		t.Fatalf("unexpected outcomes: %+v", res.Outcomes)
	}
	return er.events
}

// TestScheduleRecordReplay is the record → replay → identical-event-stream
// round trip: a run under a seeded random strategy is replayed from its
// decision log and must reproduce the exact same global event sequence.
func TestScheduleRecordReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	random := StrategyFunc(func(ready []int, step int) int {
		return ready[rng.Intn(len(ready))]
	})
	var rec Schedule
	recorded := runScheduled(t, random, &rec)
	if rec.Len() == 0 {
		t.Fatal("no grants recorded")
	}

	rp := Replay(&rec)
	var rec2 Schedule
	replayed := runScheduled(t, rp, &rec2)
	if rp.Divergences() != 0 {
		t.Fatalf("faithful replay diverged %d times", rp.Divergences())
	}
	if !reflect.DeepEqual(recorded, replayed) {
		t.Fatalf("replayed event stream differs:\nrecorded %d events\nreplayed %d events",
			len(recorded), len(replayed))
	}
	if !reflect.DeepEqual(rec.Grants, rec2.Grants) {
		t.Fatal("replaying did not reproduce the decision log")
	}
}

// TestScheduleEncodeRoundTrip checks the compact wire form.
func TestScheduleEncodeRoundTrip(t *testing.T) {
	s := &Schedule{Grants: []int32{0, 1, 127, 128, 300, 0, 2}}
	dec, err := DecodeSchedule(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Grants, dec.Grants) {
		t.Fatalf("round trip mismatch: %v != %v", dec.Grants, s.Grants)
	}
	if _, err := DecodeSchedule([]byte{0x80}); err == nil {
		t.Fatal("truncated uvarint accepted")
	}
	if got, err := DecodeSchedule(nil); err != nil || got.Len() != 0 {
		t.Fatalf("empty log should decode to empty schedule, got %v, %v", got, err)
	}
}

// TestReplayMutatedLogStillTerminates feeds a garbage decision log through
// Replay: the run must complete (falling back past divergences), never hang.
func TestReplayMutatedLogStillTerminates(t *testing.T) {
	junk := &Schedule{Grants: []int32{5, 5, 1, 9, 0, 0, 0, 1, 7}}
	rp := Replay(junk)
	runScheduled(t, rp, nil)
	if rp.Divergences() == 0 {
		t.Fatal("expected divergences replaying a foreign log")
	}
}

// TestScheduleDeadlockDetected: an agent waiting for a sign nobody will write
// must be reported as a schedule deadlock, not hang until the timeout.
func TestScheduleDeadlockDetected(t *testing.T) {
	start := time.Now()
	_, err := Run(Config{
		Graph:     graph.Cycle(4),
		Homes:     []int{0, 2},
		Seed:      1,
		WakeAll:   true,
		Timeout:   30 * time.Second,
		Scheduler: StrategyFunc(func(ready []int, step int) int { return ready[0] }),
	}, func(a *Agent) (Outcome, error) {
		_, err := a.Wait(func(ss Signs) bool { return ss.Has("never-written") })
		return Outcome{}, err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("deadlock detection waited for the timeout")
	}
}

// TestScheduledDeterminism: two runs under the same deterministic strategy
// produce identical event streams without any log in between.
func TestScheduledDeterminism(t *testing.T) {
	rr := func() Strategy {
		last := -1
		return StrategyFunc(func(ready []int, step int) int {
			for _, a := range ready {
				if a > last {
					last = a
					return a
				}
			}
			last = ready[0]
			return ready[0]
		})
	}
	a := runScheduled(t, rr(), nil)
	b := runScheduled(t, rr(), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same strategy, same seed, different event streams")
	}
}

// spinProtocol livelocks: it accesses its home whiteboard forever, so a
// scheduled run neither completes nor deadlocks, and only a timeout or a
// cancellation ends it.
func spinProtocol(a *Agent) (Outcome, error) {
	for {
		if err := a.Access(func(b *Board) { b.Write("spin") }); err != nil {
			return Outcome{}, err
		}
	}
}

// runSpinning runs spinProtocol on three agents under a round-robin
// Scheduler and checks that the abort unwound every agent with ErrAborted,
// tracing their outcomes in agent order.
func runSpinning(t *testing.T, ctx context.Context, timeout time.Duration) error {
	t.Helper()
	er := &eventRecorder{}
	res, err := Run(Config{
		Graph:     graph.Cycle(4),
		Homes:     []int{0, 1, 2},
		Seed:      5,
		WakeAll:   true,
		Timeout:   timeout,
		Context:   ctx,
		Scheduler: StrategyFunc(func(ready []int, step int) int { return ready[step%len(ready)] }),
		Tracer:    er.trace,
	}, spinProtocol)
	for i, e := range res.Errors {
		if !errors.Is(e, ErrAborted) {
			t.Errorf("agent %d error = %v, want ErrAborted", i, e)
		}
	}
	var order []int
	for _, e := range er.events {
		if e.Kind == EvOutcome {
			order = append(order, e.Agent)
		}
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("outcomes traced in agent order %v, want [0 1 2]", order)
	}
	return err
}

// TestScheduledTimeoutAborts: under the Scheduler, the watchdog ends a
// livelocked run with ErrAborted.
func TestScheduledTimeoutAborts(t *testing.T) {
	err := runSpinning(t, context.Background(), 100*time.Millisecond)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
}

// TestScheduledCancelAborts: under the Scheduler, cancelling the context
// ends a livelocked run promptly with ErrCanceled, which must not wrap the
// retriable ErrAborted.
func TestScheduledCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := runSpinning(t, ctx, 30*time.Second)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if errors.Is(err, ErrAborted) {
		t.Fatal("cancellation must not look like a retriable watchdog abort")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v, run did not unwind promptly", elapsed)
	}
}
