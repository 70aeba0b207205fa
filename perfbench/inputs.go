package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/analysiscache"
	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/zoo"
)

// instance is one generated (graph, homes) input.
type instance struct {
	Name  string
	G     *graph.Graph
	Homes []int
}

// spec is the instance's wire form: always an explicit edge list, so the
// daemon receives exactly the generated graph.
func (in instance) spec() serve.InstanceSpec {
	return serve.InstanceSpec{N: in.G.N(), Edges: in.G.EdgeEndpoints(), Homes: in.Homes}
}

// item is one input of a workload as the traced ladder replays it: an
// instance plus the run parameters the workload gives it. Analyze-only
// inputs leave strategy, fault, backend and proto empty.
type item struct {
	inst     instance
	seed     int64
	strategy string
	fault    string
	backend  string
	proto    string
	elect    bool // the HTTP step posts /v1/elect instead of /v1/analyze
}

// e4Instances are bench_test.go's E4 instances plus Petersen {0,1}.
func e4Instances() []instance {
	return []instance{
		{"cycle6[0 2]", graph.Cycle(6), []int{0, 2}},
		{"cycle6[0 3]", graph.Cycle(6), []int{0, 3}},
		{"star4[1 2 3]", graph.Star(4), []int{1, 2, 3}},
		{"hypercube3[0 1 3]", graph.Hypercube(3), []int{0, 1, 3}},
		{"random10[0 2 5 8]", graph.RandomConnected(10, 6, 13), []int{0, 2, 5, 8}},
		{"petersen[0 1]", graph.Petersen(), []int{0, 1}},
	}
}

// sweepRuns is runs from..from+count-1 of the adversary-sweep work list:
// the E4 instances crossed with every adversary strategy over a seed range
// starting at a seed-derived base. Every eighth run also injects a fault
// strategy, cycling through all five.
func sweepRuns(seed int64, from, count int) []campaign.Run {
	insts := e4Instances()
	strategies := adversary.Strategies()
	faultNames := faults.Strategies()
	block := len(insts) * len(strategies)
	base := seed * 1_000_003
	runs := make([]campaign.Run, count)
	for j := range runs {
		i := from + j
		in, st := insts[i%block/len(strategies)], strategies[i%len(strategies)]
		runs[j] = campaign.Run{Instance: in.Name, G: in.G, Homes: in.Homes,
			Seed: base + int64(i/block), Protocol: campaign.ProtoElect, Strategy: st}
		if i%8 == 7 {
			runs[j].Fault = faultNames[(i/8)%len(faultNames)]
		}
	}
	return runs
}

func sweepItems(seed int64, count int) ([]item, error) {
	var items []item
	for _, r := range sweepRuns(seed, 0, count) {
		items = append(items, item{inst: instance{r.Instance, r.G, r.Homes}, seed: r.Seed,
			strategy: r.Strategy, fault: r.Fault, elect: true})
	}
	return items, nil
}

// zooProtocols are the contract protocols of backend-zoo.
var zooProtocols = []string{"dfs-election", "zoo-dp", "zoo-shades:strong", "zoo-shades:weak", "zoo-shades:selection", "zoo-uso"}

// zooFamilies is zoo's default corpus ("family:size:h0,h1;...") as
// campaign families, each with its one explicit placement.
func zooFamilies() ([]campaign.FamilySpec, error) {
	var out []campaign.FamilySpec
	for _, s := range strings.Split(zoo.DefaultCorpus, ";") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("corpus entry %q: want family:size:homes", s)
		}
		size, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("corpus entry %q: %w", s, err)
		}
		var homes []int
		for _, h := range strings.Split(parts[2], ",") {
			v, err := strconv.Atoi(h)
			if err != nil {
				return nil, fmt.Errorf("corpus entry %q: %w", s, err)
			}
			homes = append(homes, v)
		}
		out = append(out, campaign.FamilySpec{Family: parts[0], Sizes: []int{size}, Homes: [][]int{homes}})
	}
	return out, nil
}

// zooWindowSeeds is how many seeds one backend-zoo window crosses.
const zooWindowSeeds = 8

// zooWindow is window k of the backend-zoo work list: for each of
// zooWindowSeeds consecutive seeds from a seed-derived base, campaign's
// own expansion of the corpus × protocols × backends cross, so every
// stretch of the list holds the whole cross.
func zooWindow(fams []campaign.FamilySpec, seed int64, k int) ([]campaign.Run, error) {
	base := seed*1_000_003 + int64(k*zooWindowSeeds)
	var runs []campaign.Run
	for s := base; s < base+zooWindowSeeds; s++ {
		rs, err := campaign.Spec{Families: fams, Seeds: campaign.SeedRange{From: s, To: s},
			Protocols: zooProtocols, Backends: runtime.Backends()}.Expand()
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	return runs, nil
}

// zooItems takes one run per (instance, protocol) pair, rotating the
// backend, so a short ladder still covers every protocol.
func zooItems(seed int64, count int) ([]item, error) {
	fams, err := zooFamilies()
	if err != nil {
		return nil, err
	}
	runs, err := zooWindow(fams, seed, 0)
	if err != nil {
		return nil, err
	}
	nb := len(runtime.Backends())
	if count*nb > len(runs) {
		return nil, fmt.Errorf("backend-zoo: %d items need more than one window", count)
	}
	items := make([]item, 0, count)
	for i := 0; i < count; i++ {
		r := runs[i*nb+i%nb]
		items = append(items, item{inst: instance{r.Instance, r.G, r.Homes}, seed: r.Seed,
			backend: r.Backend, proto: r.ProtoSpec})
	}
	return items, nil
}

// coldStream generates analyze-cold's instances in a fixed order from the
// seed: random connected graphs with n = 8..16 and 2..4 homes, except that
// every coldStructuredEvery-th instance is a cycle, torus or hypercube with
// random homes, rotating through coldStructured. The fixed share and
// rotation keep the mix, and so the tail it sets, the same from seed to
// seed. No two instances are isomorphic (checked by canonical key).
type coldStream struct {
	rng  *rand.Rand
	seen map[string]bool
	n, k int // instances made, structured candidates tried
}

const coldStructuredEvery = 20

var coldStructured = []struct {
	name string
	g    *graph.Graph
}{
	{"cycle16", graph.Cycle(16)}, {"torus4x4", graph.Torus(4, 4)}, {"hypercube4", graph.Hypercube(4)},
	{"cycle20", graph.Cycle(20)}, {"torus4x5", graph.Torus(4, 5)}, {"cycle24", graph.Cycle(24)},
	{"torus5x5", graph.Torus(5, 5)}, {"hypercube3", graph.Hypercube(3)},
}

func newColdStream(seed int64) *coldStream {
	return &coldStream{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (s *coldStream) next() instance {
	for tries := 0; ; tries++ {
		var g *graph.Graph
		var name string
		// A structured family whose placements run out yields to a
		// random graph after a few collisions.
		if s.n%coldStructuredEvery == coldStructuredEvery-1 && tries < 3*len(coldStructured) {
			f := coldStructured[s.k%len(coldStructured)]
			s.k++
			g, name = f.g, f.name
		} else {
			n := 8 + s.rng.Intn(9)
			seed := s.rng.Int63()
			g, name = graph.RandomConnected(n, 1+s.rng.Intn(n), seed), fmt.Sprintf("random%d/%d", n, seed)
		}
		homes := pickHomes(s.rng, g.N(), 2+s.rng.Intn(3))
		key := analysiscache.CanonicalKey(g, homes)
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		s.n++
		return instance{fmt.Sprintf("%s%v", name, homes), g, homes}
	}
}

func (s *coldStream) take(k int) []instance {
	out := make([]instance, k)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func pickHomes(rng *rand.Rand, n, r int) []int {
	homes := append([]int(nil), rng.Perm(n)[:r]...)
	sort.Ints(homes)
	return homes
}

func coldItems(seed int64, count int) ([]item, error) {
	var items []item
	for _, in := range newColdStream(seed).take(count) {
		items = append(items, item{inst: in, seed: seed})
	}
	return items, nil
}

// hotRandom is how many random graphs serve-hot's pool holds: enough that
// its mix, and so the workload's cost, varies little from seed to seed.
const hotRandom = 28

// hotPool is serve-hot's instance pool: four fixed families with
// seed-chosen homes and hotRandom small random connected graphs.
func hotPool(seed int64) []instance {
	rng := rand.New(rand.NewSource(seed))
	var pool []instance
	for _, f := range []struct {
		name string
		g    *graph.Graph
	}{{"cycle6", graph.Cycle(6)}, {"star4", graph.Star(4)}, {"hypercube3", graph.Hypercube(3)}, {"petersen", graph.Petersen()}} {
		homes := pickHomes(rng, f.g.N(), 2+rng.Intn(2))
		pool = append(pool, instance{fmt.Sprintf("%s%v", f.name, homes), f.g, homes})
	}
	for i := 0; i < hotRandom; i++ {
		n := 6 + rng.Intn(5)
		gseed := rng.Int63()
		g := graph.RandomConnected(n, 1+rng.Intn(n), gseed)
		homes := pickHomes(rng, n, 2+rng.Intn(2))
		pool = append(pool, instance{fmt.Sprintf("random%d/%d%v", n, gseed, homes), g, homes})
	}
	return pool
}

// hotRequest is one serve-hot request: an analyze of a pool member or of a
// renumbered copy, or an elect with a distinct seed.
type hotRequest struct {
	inst  instance
	pool  int // index of the pool member it is (a copy of)
	elect bool
	seed  int64
}

// hotStream generates serve-hot's requests in a fixed order from the seed.
type hotStream struct {
	rng  *rand.Rand
	pool []instance
	k    int64
	base int64
}

func newHotStream(seed int64) *hotStream {
	return &hotStream{rng: rand.New(rand.NewSource(seed ^ 0x5e7e)), pool: hotPool(seed), base: seed * 1_000_003}
}

func (s *hotStream) next() hotRequest {
	s.k++
	p := s.rng.Intn(len(s.pool))
	in := s.pool[p]
	if s.rng.Intn(5) == 0 {
		return hotRequest{inst: in, pool: p, elect: true, seed: s.base + s.k}
	}
	if s.rng.Intn(2) == 0 {
		in = renumber(in, s.rng)
	}
	return hotRequest{inst: in, pool: p, seed: s.base + s.k}
}

func (s *hotStream) take(k int) []hotRequest {
	out := make([]hotRequest, k)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// renumber returns an isomorphic copy of in under a random node
// permutation (node v becomes perm[v]).
func renumber(in instance, rng *rand.Rand) instance {
	n := in.G.N()
	perm := rng.Perm(n)
	b := graph.NewBuilder(n)
	for _, e := range in.G.EdgeEndpoints() {
		b.AddEdge(perm[e[0]], perm[e[1]])
	}
	homes := make([]int, len(in.Homes))
	for i, h := range in.Homes {
		homes[i] = perm[h]
	}
	return instance{in.Name + "~", b.Graph(), homes}
}

func hotItems(seed int64, count int) ([]item, error) {
	var items []item
	for _, r := range newHotStream(seed).take(count) {
		items = append(items, item{inst: r.inst, seed: r.seed, elect: r.elect})
	}
	return items, nil
}
