package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
)

// verdict is the oracle's answer for one instance.
type verdict struct {
	Sizes    []int
	GCD      int
	Solvable bool
}

// outcome is the election outcome ELECT owes under the gcd verdict.
func (v verdict) outcome() string {
	if v.Solvable {
		return "leader"
	}
	return "unsolvable"
}

// oracleFunc computes the verdict every output of the program is checked
// against.
type oracleFunc func(g *graph.Graph, homes []int) (verdict, error)

// bruteForceMaxN bounds the instances whose class sizes the oracle also
// derives by enumerating automorphisms.
const bruteForceMaxN = 8

// analysisOracle is the harness's own in-process oracle: the centralized
// analysis, cross-checked for n ≤ 8 by a brute-force automorphism count.
func analysisOracle(g *graph.Graph, homes []int) (verdict, error) {
	an, err := elect.AnalyzeCtx(context.Background(), g, homes, order.Direct)
	if err != nil {
		return verdict{}, fmt.Errorf("oracle analysis: %w", err)
	}
	v := verdict{Sizes: an.Sizes, GCD: an.GCD, Solvable: an.GCD == 1}
	if g.N() <= bruteForceMaxN {
		orbits := bruteOrbitSizes(g, elect.BlackColors(g.N(), homes))
		sizes := append([]int(nil), v.Sizes...)
		sort.Ints(sizes)
		if !slices.Equal(orbits, sizes) {
			return verdict{}, fmt.Errorf("oracle: analysis class sizes %v disagree with brute-force orbits %v", v.Sizes, orbits)
		}
	}
	return v, nil
}

// bruteOrbitSizes enumerates the color-preserving automorphisms of g by
// backtracking and returns the sorted sizes of the node orbits they induce.
// Edge multiplicities must match too, so it is exact on multigraphs.
func bruteOrbitSizes(g *graph.Graph, colors []int) []int {
	n := g.N()
	adj := g.AdjacencyMatrix()
	img := make([]int, n)
	used := make([]bool, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var place func(v int)
	place = func(v int) {
		if v == n {
			for u := 0; u < n; u++ {
				parent[find(u)] = find(img[u])
			}
			return
		}
		for w := 0; w < n; w++ {
			if used[w] || colors[w] != colors[v] || adj[v][v] != adj[w][w] {
				continue
			}
			ok := true
			for u := 0; u < v && ok; u++ {
				ok = adj[u][v] == adj[img[u]][w]
			}
			if !ok {
				continue
			}
			img[v], used[w] = w, true
			place(v + 1)
			used[w] = false
		}
	}
	place(0)
	count := map[int]int{}
	for u := 0; u < n; u++ {
		count[find(u)]++
	}
	var sizes []int
	for _, c := range count {
		sizes = append(sizes, c)
	}
	sort.Ints(sizes)
	return sizes
}

// oracleCache memoizes verdicts by instance name within one run; instances
// with equal names are equal by construction of the generators.
type oracleCache struct {
	fn oracleFunc
	m  map[string]verdict
}

func newOracleCache(fn oracleFunc) *oracleCache {
	return &oracleCache{fn: fn, m: map[string]verdict{}}
}

// fill computes the verdicts of insts on workers goroutines. Failures are
// left for get to report.
func (c *oracleCache) fill(insts []instance, workers int) {
	var todo []instance
	queued := map[string]bool{}
	for _, in := range insts {
		if _, ok := c.m[in.Name]; !ok && !queued[in.Name] {
			queued[in.Name] = true
			todo = append(todo, in)
		}
	}
	got := make([]verdict, len(todo))
	errs := make([]error, len(todo))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got[i], errs[i] = c.fn(todo[i].G, todo[i].Homes)
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, in := range todo {
		if errs[i] == nil {
			c.m[in.Name] = got[i]
		}
	}
}

func (c *oracleCache) get(in instance) (verdict, error) {
	if v, ok := c.m[in.Name]; ok {
		return v, nil
	}
	v, err := c.fn(in.G, in.Homes)
	if err != nil {
		return verdict{}, fmt.Errorf("%s: %w", in.Name, err)
	}
	c.m[in.Name] = v
	return v, nil
}

// checkAnalysis compares an analysis answer against the oracle's verdict.
func checkAnalysis(name string, sizes []int, gcd int, solvable bool, want verdict) error {
	if !slices.Equal(sizes, want.Sizes) || gcd != want.GCD || solvable != want.Solvable {
		return fmt.Errorf("%s: analysis sizes=%v gcd=%d solvable=%v, oracle sizes=%v gcd=%d solvable=%v",
			name, sizes, gcd, solvable, want.Sizes, want.GCD, want.Solvable)
	}
	return nil
}
