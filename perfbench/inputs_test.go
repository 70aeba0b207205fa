package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/campaign"
	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/iso"
)

// encodeInputs serializes everything a workload sends for one seed: the
// batch work lists, the open-loop request bodies and the traced items.
func encodeInputs(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	runs := func(rs []campaign.Run) {
		for _, r := range rs {
			fmt.Fprintf(&b, "%s %v %v %d %s %s %s %s\n", r.Instance, r.G.EdgeEndpoints(), r.Homes, r.Seed, r.Strategy, r.Fault, r.Backend, r.ProtoSpec)
		}
	}
	switch name {
	case "adversary-sweep":
		runs(sweepRuns(seed, 0, 500))
		runs(sweepRuns(seed, 3*batchWindow, 500))
	case "backend-zoo":
		fams, err := zooFamilies()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 3} {
			rs, err := zooWindow(fams, seed, k)
			if err != nil {
				t.Fatal(err)
			}
			runs(rs)
		}
	case "analyze-cold":
		for _, in := range newColdStream(seed).take(200) {
			b.Write(analyzeCall(in, in).body)
		}
	case "serve-hot":
		s := newHotStream(seed)
		for _, r := range s.take(300) {
			b.Write(hotCall(r, s.pool[r.pool]).body)
		}
	}
	items, err := workloads[name].items(seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		fmt.Fprintf(&b, "%s %v %v %d %s %s %s %s %v\n", it.inst.Name, it.inst.G.EdgeEndpoints(), it.inst.Homes, it.seed, it.strategy, it.fault, it.backend, it.proto, it.elect)
	}
	return b.Bytes()
}

func TestInputsRepeatPerSeed(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := encodeInputs(t, name, 7), encodeInputs(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two generations", name)
		}
		if bytes.Equal(a, encodeInputs(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// A different seed gives a different serve-hot pool, so a later claim can
// hold one seed out of the runs it was tuned on.
func TestHotPoolHeldOutSeed(t *testing.T) {
	key := func(pool []instance) string {
		var b bytes.Buffer
		for _, in := range pool {
			fmt.Fprintf(&b, "%v %v;", in.G.EdgeEndpoints(), in.Homes)
		}
		return b.String()
	}
	if key(hotPool(1)) == key(hotPool(2)) {
		t.Fatal("seeds 1 and 2 gave the same serve-hot pool")
	}
}

func TestColdInstancesPairwiseNonIsomorphic(t *testing.T) {
	insts := newColdStream(3).take(400)
	seen := map[string]string{}
	structured := 0
	for _, in := range insts {
		word := string(iso.CanonicalWord(iso.FromGraph(in.G, elect.BlackColors(in.G.N(), in.Homes))))
		if prev, ok := seen[word]; ok {
			t.Fatalf("%s and %s share a canonical word", prev, in.Name)
		}
		seen[word] = in.Name
		if in.G.N() < 8 || in.G.N() > 16 {
			structured++
		}
		if len(in.Homes) < 2 || len(in.Homes) > 4 || !in.G.IsConnected() {
			t.Fatalf("%s: %d homes, connected=%v", in.Name, len(in.Homes), in.G.IsConnected())
		}
	}
	if structured == 0 {
		t.Fatal("no structured instance outside n = 8..16 in 400")
	}
}

func TestRenumberedCopyIsIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, in := range hotPool(5) {
		cp := renumber(in, rng)
		if analysiscache.CanonicalKey(cp.G, cp.Homes) != analysiscache.CanonicalKey(in.G, in.Homes) {
			t.Fatalf("renumbered copy of %s has another canonical key", in.Name)
		}
	}
}

func TestBruteForceOrbits(t *testing.T) {
	for _, c := range []struct {
		g     *graph.Graph
		homes []int
		want  []int
	}{
		{graph.Cycle(6), []int{0, 3}, []int{2, 4}},
		{graph.Cycle(6), []int{0, 2}, []int{1, 1, 2, 2}},
		{graph.Hypercube(3), []int{0, 7}, []int{2, 6}},
		{graph.Star(4), []int{1, 2, 3}, []int{1, 1, 3}},
	} {
		got := bruteOrbitSizes(c.g, elect.BlackColors(c.g.N(), c.homes))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%v homes %v: orbits %v, want %v", c.g, c.homes, got, c.want)
		}
		if _, err := analysisOracle(c.g, c.homes); err != nil {
			t.Error(err)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}
