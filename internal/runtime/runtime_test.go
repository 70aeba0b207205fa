package runtime

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestConfigValidation(t *testing.T) {
	good := graph.Cycle(4)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"empty graph", Config{}, "empty graph"},
		{"disconnected", Config{Graph: mustDisconnected(t), Homes: []int{0}}, "connected"},
		{"no agents", Config{Graph: good}, "at least one agent"},
		{"home out of range", Config{Graph: good, Homes: []int{9}}, "out of range"},
		{"duplicate home", Config{Graph: good, Homes: []int{1, 1}}, "AllowSharedHomes"},
		{"bad labeling", Config{Graph: good, Homes: []int{0}, Labels: graph.EdgeLabeling{{0}}}, "label"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}, &Networked{}} {
				cfg := tc.cfg
				_, err := rt.Run(cfg, DFSElection())
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: got %v, want mention of %q", rt.Name(), err, tc.want)
				}
			}
		})
	}
}

func mustDisconnected(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromTwins([][][2]int{
		{{1, 0}}, {{0, 0}},
		{{3, 0}}, {{2, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSharedHomes(t *testing.T) {
	cfg := Config{
		Graph:            graph.Cycle(5),
		Homes:            []int{0, 0, 3, 3},
		Seed:             2,
		AllowSharedHomes: true,
	}
	for _, rt := range []Runtime{Goroutine{}, Transformed{}, &Networked{Workers: 2}} {
		res, err := rt.Run(cfg, DFSElection())
		if err != nil {
			t.Fatalf("%s: %v", rt.Name(), err)
		}
		if got := res.Leader(); got != 3 {
			t.Fatalf("%s: leader %d, want the maximum identity 3 (outcomes %v)",
				rt.Name(), got, res.Outcomes)
		}
	}
}

func TestNewAndBackends(t *testing.T) {
	for _, name := range Backends() {
		rt, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, rt.Name())
		}
	}
	if _, err := New("carrier-pigeon"); err == nil {
		t.Fatal("New accepted an unknown backend")
	}
}

func TestRegistry(t *testing.T) {
	if _, err := FromSpec("dfs-election"); err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec("dfs-election:extra"); err == nil {
		t.Fatal("dfs-election accepted args")
	}
	p, err := FromSpec("walker:1,3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec() != "walker:1,3" {
		t.Fatalf("spec round trip: %q", p.Spec())
	}
	if p, err := FromSpec("chang-roberts:1"); err != nil || p.Spec() != "chang-roberts:1" {
		t.Fatalf("chang-roberts spec round trip: %v", err)
	}
	for _, bad := range []string{"", "nope", "walker", "walker:x,y", "walker:1", "chang-roberts", "chang-roberts:cw"} {
		if _, err := FromSpec(bad); err == nil {
			t.Fatalf("FromSpec(%q) succeeded", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("dfs-election", nil)
}

func TestWalkerAcrossBackends(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(4), Homes: []int{0, 2}, Seed: 1}
	for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}, &Networked{}} {
		res, err := rt.Run(cfg, Walker(1, 5))
		if err != nil {
			t.Fatalf("%s: %v", rt.Name(), err)
		}
		for i, o := range res.Outcomes {
			if o != "done" {
				t.Fatalf("%s: agent %d halted %q", rt.Name(), i, o)
			}
			if res.Moves[i] != 5 {
				t.Fatalf("%s: agent %d made %d moves", rt.Name(), i, res.Moves[i])
			}
		}
		if res.Steps == 0 || res.Backend != rt.Name() {
			t.Fatalf("%s: result metadata %+v", rt.Name(), res)
		}
	}
}

// sitter parks forever — the deadlock probe.
type sitter struct{}

func (sitter) Spec() string    { return "test-sitter" }
func (sitter) Init(int) string { return "" }
func (sitter) Step(m string, _ View) (string, Effect) {
	return m, Effect{Move: -1}
}

// badMover moves through a label no port carries.
type badMover struct{}

func (badMover) Spec() string    { return "test-bad-mover" }
func (badMover) Init(int) string { return "" }
func (badMover) Step(m string, _ View) (string, Effect) {
	return m, Effect{Move: 99}
}

// TestBadMoveLabel: a move through a label absent at the node is a run
// error on every in-process backend, never a silent stall.
func TestBadMoveLabel(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(3), Homes: []int{0}, Seed: 1}
	for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}} {
		if _, err := rt.Run(cfg, badMover{}); err == nil {
			t.Fatalf("%s backend accepted a move through an unknown label", rt.Name())
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(3), Homes: []int{0}, Seed: 1}
	for _, rt := range []Runtime{&Scheduled{}, Transformed{}} {
		if _, err := rt.Run(cfg, sitter{}); err == nil {
			t.Fatalf("%s backend did not flag an eternal sitter", rt.Name())
		}
	}
}

// stampWaiter is the park-and-wake probe: agent 1 walks one hop through
// label 1 and parks until a "stamp" mark appears; agent 2 stamps its home
// (agent 1's destination) and halts.
type stampWaiter struct{}

func (stampWaiter) Spec() string    { return "test-stamp-waiter" }
func (stampWaiter) Init(int) string { return "" }
func (stampWaiter) Step(m string, v View) (string, Effect) {
	switch {
	case m == "" && v.ID == 1:
		return "waiting", Effect{Move: 1}
	case m == "":
		return m, Effect{Write: []string{"stamp"}, Halt: "done", Move: -1}
	}
	for _, mark := range v.Board {
		if mark == "stamp" {
			return m, Effect{Halt: "done", Move: -1}
		}
	}
	return m, Effect{Move: -1}
}

// TestParkedAgentWakesOnBoardChange: a parked agent is re-stepped once its
// node's board changes, on every in-process backend and for any schedule.
func TestParkedAgentWakesOnBoardChange(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(3), Labels: orientedRing(3), Homes: []int{0, 1}}
	for seed := int64(1); seed <= 10; seed++ {
		cfg.Seed = seed
		for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}} {
			res, err := rt.Run(cfg, stampWaiter{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", rt.Name(), seed, err)
			}
			if !reflect.DeepEqual(res.Outcomes, []string{"done", "done"}) {
				t.Fatalf("%s seed %d: outcomes %v", rt.Name(), seed, res.Outcomes)
			}
		}
	}
}

// orientedRing labels C_n's ports so label 1 always leads clockwise
// (i -> i+1) and label 0 counter-clockwise.
func orientedRing(n int) graph.EdgeLabeling {
	g := graph.Cycle(n)
	l := make(graph.EdgeLabeling, n)
	for v := 0; v < n; v++ {
		l[v] = make([]int, g.Deg(v))
		for p := range l[v] {
			if g.Port(v, p).To == (v+1)%n {
				l[v][p] = 1
			}
		}
	}
	return l
}

// TestChangRobertsOrientedRings runs the Chang–Roberts protocol on fully
// occupied oriented rings across all four backends: the maximum identity
// wins everywhere, and every backend reports the same outcome vector and
// per-agent move counts (the move counts do not depend on the schedule).
func TestChangRobertsOrientedRings(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		homes := make([]int, n)
		for i := range homes {
			homes[i] = i
		}
		cfg := Config{Graph: graph.Cycle(n), Labels: orientedRing(n), Homes: homes}
		for seed := int64(1); seed <= 3; seed++ {
			cfg.Seed = seed
			var first *Result
			for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}, &Networked{Workers: 2}} {
				res, err := rt.Run(cfg, ChangRoberts(1))
				if err != nil {
					t.Fatalf("n=%d seed %d %s: %v", n, seed, rt.Name(), err)
				}
				if res.Leader() != n-1 {
					t.Fatalf("n=%d seed %d %s: leader %d, want the maximum identity (outcomes %v)",
						n, seed, rt.Name(), res.Leader(), res.Outcomes)
				}
				if first == nil {
					first = res
					continue
				}
				if !reflect.DeepEqual(res.Outcomes, first.Outcomes) || !reflect.DeepEqual(res.Moves, first.Moves) {
					t.Fatalf("n=%d seed %d: %s (%v, moves %v) differs from %s (%v, moves %v)", n, seed,
						rt.Name(), res.Outcomes, res.Moves, first.Backend, first.Outcomes, first.Moves)
				}
			}
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Outcomes: []string{HaltDefeated, HaltLeader}, Moves: []int64{3, 4}}
	if r.Leader() != 1 || r.TotalMoves() != 7 {
		t.Fatalf("helpers: leader %d, total %d", r.Leader(), r.TotalMoves())
	}
	two := &Result{Outcomes: []string{HaltLeader, HaltLeader}}
	if two.Leader() != -1 {
		t.Fatal("two leaders must report none")
	}
	none := &Result{Outcomes: []string{HaltDefeated}}
	if none.Leader() != -1 {
		t.Fatal("no leader must report none")
	}
}

func TestBoardSetDedup(t *testing.T) {
	b := &boardSet{}
	if !b.write(0, "x") || b.write(0, "x") {
		t.Fatal("per-writer dedup broken")
	}
	if !b.write(1, "x") {
		t.Fatal("a second writer must land the same text")
	}
	if got := b.view(); len(got) != 2 || got[0] != "x" || got[1] != "x" {
		t.Fatalf("view %v", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &frame{T: FrameExec, Node: 3, Agent: 1, Mem: "F|2|1", Entry: 0, Move: -1}
	if _, err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
	// Oversized and truncated frames are rejected.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 9, 'x'})); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestServeWorkerErrors drives the worker loop over an in-memory pipe
// through its failure branches: exec before init, a node outside the
// shard, a bad protocol spec, and an unexpected frame type.
func TestServeWorkerErrors(t *testing.T) {
	start := func() (net.Conn, chan error) {
		c, s := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- ServeWorker(s) }()
		return c, done
	}

	c, done := start()
	if _, err := writeFrame(c, &frame{T: FrameExec, Node: 0}); err != nil {
		t.Fatal(err)
	}
	res, _, err := readFrame(c)
	if err != nil || !strings.Contains(res.Err, "before init") {
		t.Fatalf("exec before init: %v %+v", err, res)
	}

	if _, err := writeFrame(c, &frame{T: FrameInit, Spec: "no-such"}); err != nil {
		t.Fatal(err)
	}
	ack, _, err := readFrame(c)
	if err != nil || ack.Err == "" {
		t.Fatalf("bad spec must be refused: %v %+v", err, ack)
	}

	if _, err := writeFrame(c, &frame{T: FrameInit, Spec: "walker:1,1",
		Nodes: []nodeInit{{V: 0, Labels: []int{0, 1}, Homes: []int{0}}}}); err != nil {
		t.Fatal(err)
	}
	if ack, _, err = readFrame(c); err != nil || ack.Err != "" {
		t.Fatalf("good init refused: %v %+v", err, ack)
	}
	if _, err := writeFrame(c, &frame{T: FrameExec, Node: 5}); err != nil {
		t.Fatal(err)
	}
	if res, _, err = readFrame(c); err != nil || !strings.Contains(res.Err, "not in this shard") {
		t.Fatalf("foreign node accepted: %v %+v", err, res)
	}
	if _, err := writeFrame(c, &frame{T: FrameDone}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.Close()

	c, done = start()
	if _, err := writeFrame(c, &frame{T: "mystery"}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("unexpected frame type accepted")
	}
	c.Close()

	c, done = start()
	c.Close() // EOF is a clean shutdown
	if err := <-done; err != nil {
		t.Fatalf("EOF must end the worker cleanly: %v", err)
	}
}

func TestRunWorkerBadSpecs(t *testing.T) {
	for _, spec := range []string{"", "unix|/none", "unix|/none|x", "bad-network|addr|0"} {
		if err := RunWorker(spec); err == nil {
			t.Fatalf("RunWorker(%q) succeeded", spec)
		}
	}
}

func TestNetworkedBadConfig(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(3), Homes: []int{0}, Seed: 1}
	if _, err := (&Networked{Spawn: "teleport"}).Run(cfg, DFSElection()); err == nil {
		t.Fatal("unknown spawn mode accepted")
	}
	if _, err := (&Networked{Spawn: SpawnProcess, Transport: "carrier"}).Run(cfg, DFSElection()); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
