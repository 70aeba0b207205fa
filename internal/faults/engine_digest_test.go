package faults_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/elect"
	"repro/internal/faults"
	"repro/internal/sim"
)

// Regenerate with: go test ./internal/faults -run TestEngineDigestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files from current output")

const (
	digestGolden = "engine-digests.golden"
	// eventsGolden holds the rendered event streams behind the digests. It is
	// read only to explain a digest mismatch, so it is kept compressed.
	eventsGolden = "engine-events.golden.gz"
)

// engineRun is one run of the engine digest sweep, reduced to its
// deterministic outputs.
type engineRun struct {
	id     string
	err    string   // "ok", "deadlock" or "error"
	grants []byte   // Schedule.Encode()
	plan   []byte   // fault plan encoding (empty without faults)
	events []string // the Event stream, timestamps dropped
}

// digestLine renders the run's golden line: its counts and one SHA-256 over
// the length-prefixed schedule, plan and event stream.
func (r *engineRun) digestLine() string {
	h := sha256.New()
	part := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	part(r.grants)
	part(r.plan)
	part([]byte(strings.Join(r.events, "\n")))
	return fmt.Sprintf("%s %s schedule=%dB plan=%dB events=%d sha256=%x",
		r.id, r.err, len(r.grants), len(r.plan), len(r.events), h.Sum(nil))
}

func renderEvent(e sim.Event) string {
	return fmt.Sprintf("a%d %v n%d %q %v", e.Agent, e.Kind, e.Node, e.Tag, e.Phase)
}

// engineDigestSweep runs ELECT on every electInstances() fixture under each
// adversary strategy, with no fault and with each fault strategy, at seeds
// 1..3. Agents wake in a seed-chosen subset, so crashes strand sleepers and
// a good share of the runs end in a schedule deadlock and its abort unwind.
func engineDigestSweep(t *testing.T) []*engineRun {
	var runs []*engineRun
	for _, inst := range electInstances() {
		classOf := adversary.AgentClasses(inst.g, inst.homes)
		for _, strat := range adversary.Strategies() {
			for _, fault := range append([]string{""}, faults.Strategies()...) {
				for seed := int64(1); seed <= 3; seed++ {
					sched, err := adversary.NewStrategy(strat, seed, classOf)
					if err != nil {
						t.Fatal(err)
					}
					name := fault
					if name == "" {
						name = "none"
					}
					run := &engineRun{id: fmt.Sprintf("%s/%s/%s/%d", inst.name, strat, name, seed)}
					var rec sim.Schedule
					cfg := sim.Config{
						Graph: inst.g, Homes: inst.homes, Seed: seed,
						Scheduler: sched, Record: &rec,
						Tracer: func(e sim.Event) { run.events = append(run.events, renderEvent(e)) },
					}
					var inj *faults.Injector
					if fault != "" {
						if inj, err = faults.New(fault, seed, len(inst.homes), inst.homes); err != nil {
							t.Fatal(err)
						}
						cfg.Faults = inj
					}
					_, runErr := sim.Run(cfg, elect.Elect(elect.Options{}))
					switch {
					case runErr == nil:
						run.err = "ok"
					case errors.Is(runErr, sim.ErrDeadlock):
						run.err = "deadlock"
					default:
						run.err = "error"
					}
					run.grants = rec.Encode()
					if inj != nil {
						run.plan = inj.Recorded().Encode()
					}
					runs = append(runs, run)
				}
			}
		}
	}
	return runs
}

// TestEngineDigestGolden pins the serializing engine's observable behaviour:
// for every run of the sweep, the recorded schedule, the injected fault plan
// and the full event stream must hash to the committed digest. A change to
// the engine that keeps its behaviour bit-exact passes unchanged; on a
// mismatch the test names the first event that differs.
func TestEngineDigestGolden(t *testing.T) {
	runs := engineDigestSweep(t)
	var digests, events bytes.Buffer
	for _, r := range runs {
		fmt.Fprintln(&digests, r.digestLine())
		fmt.Fprintf(&events, "# %s\n", r.id)
		for _, e := range r.events {
			fmt.Fprintln(&events, e)
		}
	}
	if *update {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(events.Bytes())
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string][]byte{digestGolden: digests.Bytes(), eventsGolden: gz.Bytes()} {
			if err := os.WriteFile(filepath.Join("testdata", path), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", digestGolden))
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(runs) {
		t.Fatalf("%s has %d runs, the sweep has %d", digestGolden, len(wantLines), len(runs))
	}
	var wantEvents map[string][]string
	for i, r := range runs {
		got := r.digestLine()
		if got == wantLines[i] {
			continue
		}
		if wantEvents == nil {
			wantEvents = loadGoldenEvents(t)
		}
		t.Errorf("engine digest drifted\n want %s\n  got %s\n%s", wantLines[i], got, firstDivergence(wantEvents[r.id], r.events))
	}
}

// loadGoldenEvents reads the compressed event streams, keyed by run id.
func loadGoldenEvents(t *testing.T) map[string][]string {
	f, err := os.Open(filepath.Join("testdata", eventsGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	var id string
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "# "); ok {
			id = line
			out[id] = []string{}
			continue
		}
		out[id] = append(out[id], sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// firstDivergence describes the first index at which two event streams
// differ.
func firstDivergence(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		w, g := "(end of stream)", "(end of stream)"
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Sprintf(" first divergent event #%d\n  want %s\n   got %s", i, w, g)
		}
	}
	return " event streams are identical; the schedule or the fault plan differs"
}
