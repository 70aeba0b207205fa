package iso

// Tests of the optimized engine's mechanics: the allocation-free refinement
// hot path, the explicit leaf budget, cancellation, and the exported
// equitable partition.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestRefineHotPathAllocationFree asserts the acceptance criterion of the
// refinement rewrite: with warm scratch, a full equitable refinement pass
// performs zero allocations — hence no fmt formatting, no string keys and
// no map allocation on the hot path.
func TestRefineHotPathAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Colored
	}{
		{"petersen", FromGraph(graph.Petersen(), nil)},
		{"q4", FromGraph(graph.Hypercube(4), nil)},
		{"c32-bicolored", FromGraph(graph.Cycle(32), blackAt(32, 0, 8, 16, 24))},
		{"torus4x4", FromGraph(graph.Torus(4, 4), nil)},
	} {
		st := acquireState(tc.c, nil)
		lv := st.level(0)
		// Warm the scratch buffers once.
		st.initialPartition(lv)
		st.refine(lv)
		allocs := testing.AllocsPerRun(50, func() {
			st.initialPartition(lv)
			st.refine(lv)
		})
		st.release()
		if allocs != 0 {
			t.Errorf("%s: refine hot path allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
}

// TestCanonicalAllocatesOnlyResult pins what a search on warm pooled
// scratch allocates: its returned Result and nothing else. That is the
// Result struct, Word, Perm, one slice per automorphism generator and the
// AutoGens slice's append growth (1, 2, 4, ... entries): 3 + 10 + 5 = 18 for
// Petersen and Q4, 3 + 3 + 3 = 9 for the bicolored C32 and 3 + 14 + 5 = 22
// for the 4×4 torus, in both engines.
func TestCanonicalAllocatesOnlyResult(t *testing.T) {
	for _, tc := range []struct {
		name      string
		c         *Colored
		maxAllocs float64
	}{
		{"petersen", FromGraph(graph.Petersen(), nil), 18},
		{"q4", FromGraph(graph.Hypercube(4), nil), 18},
		{"c32-bicolored", FromGraph(graph.Cycle(32), blackAt(32, 0, 8, 16, 24)), 9},
		{"torus4x4", FromGraph(graph.Torus(4, 4), nil), 22},
	} {
		sp := SparseFromColored(tc.c)
		for _, mode := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"dense", func() (*Result, error) { return CanonicalOpt(tc.c, Options{}) }},
			{"sparse", func() (*Result, error) { return CanonicalSparseOpt(sp, Options{}) }},
		} {
			r, err := mode.run() // warm-up: sizes a pooled state for this n
			if err != nil {
				t.Fatal(err)
			}
			if got := resultAllocs(r); float64(got) != tc.maxAllocs {
				t.Fatalf("%s %s: the Result itself takes %d allocations, the pinned bound is %.0f", tc.name, mode.name, got, tc.maxAllocs)
			}
			if raceEnabled {
				continue
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := mode.run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.maxAllocs {
				t.Errorf("%s %s: search allocated %.1f times per run, want at most %.0f (its Result)", tc.name, mode.name, allocs, tc.maxAllocs)
			}
		}
	}
}

// resultAllocs counts the allocations that building r takes: the struct,
// Word, Perm, each generator and the doubling growth of AutoGens.
func resultAllocs(r *Result) int {
	n := 3 + len(r.AutoGens)
	for c := 1; c/2 < len(r.AutoGens); c *= 2 {
		n++
	}
	return n
}

// TestPooledSearchIsolation runs canonical searches of mixed sizes from
// several goroutines, large→small→large and small→large, through the dense
// and the sparse engine, so pooled states are handed between sizes, engines
// and goroutines. Every Result is deep-copied when received; after all
// searches finish each must still equal its copy (no later search wrote
// into it) and the result of a sequential run (no stale scratch leaked
// into it).
func TestPooledSearchIsolation(t *testing.T) {
	inputs := []*Colored{ // ascending size
		FromGraph(graph.Cycle(6), blackAt(6, 0, 2)),
		FromGraph(graph.Petersen(), nil),
		FromGraph(graph.Torus(4, 4), blackAt(16, 0)),
		FromGraph(graph.BlowupCycle(6, 3), nil),
		FromGraph(graph.Cycle(32), blackAt(32, 0, 8, 16, 24)),
		FromGraph(graph.Hypercube(5), blackAt(32, 0, 31)),
	}
	sparse := make([]*Sparse, len(inputs))
	for i, c := range inputs {
		sparse[i] = SparseFromColored(c)
	}
	search := func(i int, isSparse bool) *Result {
		var r *Result
		var err error
		if isSparse {
			r, err = CanonicalSparseOpt(sparse[i], Options{})
		} else {
			r, err = CanonicalOpt(inputs[i], Options{})
		}
		if err != nil {
			t.Error(err)
		}
		return r
	}
	want := make([][2]*Result, len(inputs))
	for i := range inputs {
		want[i] = [2]*Result{search(i, false), search(i, true)}
	}

	var largeSmallLarge, smallLarge []int
	for i := len(inputs) - 1; i >= 0; i-- {
		largeSmallLarge = append(largeSmallLarge, i)
	}
	for i := range inputs {
		largeSmallLarge = append(largeSmallLarge, i)
		smallLarge = append(smallLarge, i)
	}
	type kept struct {
		input    int
		isSparse bool
		got      *Result
		copy     *Result
	}
	const workers, rounds = 6, 3
	kepts := make([][]kept, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := largeSmallLarge
			if w%2 == 1 {
				order = smallLarge
			}
			for k := 0; k < rounds; k++ {
				for j, i := range order {
					isSparse := (w+j+k)%2 == 0
					r := search(i, isSparse)
					kepts[w] = append(kepts[w], kept{i, isSparse, r, cloneResult(r)})
				}
			}
		}(w)
	}
	wg.Wait()
	for w, ks := range kepts {
		for _, k := range ks {
			mode := 0
			if k.isSparse {
				mode = 1
			}
			if !reflect.DeepEqual(k.got, k.copy) {
				t.Fatalf("worker %d input %d sparse=%v: Result changed after it was returned", w, k.input, k.isSparse)
			}
			if !reflect.DeepEqual(k.got, want[k.input][mode]) {
				t.Fatalf("worker %d input %d sparse=%v: Result differs from the sequential run", w, k.input, k.isSparse)
			}
		}
	}
}

func cloneResult(r *Result) *Result {
	out := &Result{Perm: slices.Clone(r.Perm), Word: slices.Clone(r.Word)}
	for _, a := range r.AutoGens {
		out.AutoGens = append(out.AutoGens, slices.Clone(a))
	}
	return out
}

func blackAt(n int, idx ...int) []int {
	cols := make([]int, n)
	for _, i := range idx {
		cols[i] = 1
	}
	return cols
}

// TestEquitablePartition sanity-checks the exported refinement: cells are
// equitable (equal out/in multiplicity into every cell for all members) and
// the partition is invariant under relabeling.
func TestEquitablePartition(t *testing.T) {
	c := FromGraph(graph.Star(4), nil)
	cells := EquitablePartition(c)
	if len(cells) != 2 {
		t.Fatalf("star partition: %v", cells)
	}
	for _, cell := range cells {
		for _, other := range cells {
			out0, in0 := -1, -1
			for _, v := range cell {
				out, in := 0, 0
				for _, u := range other {
					out += c.Adj[v][u]
					in += c.Adj[u][v]
				}
				if out0 == -1 {
					out0, in0 = out, in
				} else if out != out0 || in != in0 {
					t.Fatalf("partition not equitable at cell %v vs %v", cell, other)
				}
			}
		}
	}
}

// TestCanonicalBudget checks the explicit search budget: a generous budget
// succeeds with the exact canonical result, an absurdly small one fails
// with ErrLeafBudget and no partial word.
func TestCanonicalBudget(t *testing.T) {
	c := FromGraph(graph.Petersen(), nil)
	want := CanonicalWord(c)

	r, err := CanonicalBudget(c, 1<<20)
	if err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
	if string(r.Word) != string(want) {
		t.Fatal("budgeted search returned a different word")
	}

	if _, err := CanonicalBudget(c, 1); !errors.Is(err, ErrLeafBudget) {
		t.Fatalf("budget 1 returned %v, want ErrLeafBudget", err)
	}
}

// TestCanonicalBudgetUnbounded: maxLeaves <= 0 never trips the budget.
func TestCanonicalBudgetUnbounded(t *testing.T) {
	c := FromGraph(graph.Hypercube(3), nil)
	if _, err := CanonicalBudget(c, 0); err != nil {
		t.Fatalf("unbounded budget failed: %v", err)
	}
	if _, err := CanonicalBudget(c, -5); err != nil {
		t.Fatalf("negative budget failed: %v", err)
	}
}

// TestCanonicalOptBudget: Options.MaxLeaves aborts both the dense and the
// sparse search with ErrLeafBudget exactly like CanonicalBudget, and a
// generous budget returns the unbudgeted word.
func TestCanonicalOptBudget(t *testing.T) {
	g := graph.Hypercube(4)
	c := FromGraph(g, nil)
	if _, err := CanonicalOpt(c, Options{MaxLeaves: 2}); !errors.Is(err, ErrLeafBudget) {
		t.Fatalf("dense tiny budget: got err=%v, want ErrLeafBudget", err)
	}
	res, err := CanonicalOpt(c, Options{MaxLeaves: 1 << 20})
	if err != nil {
		t.Fatalf("dense generous budget: %v", err)
	}
	if !bytes.Equal(res.Word, Canonical(c).Word) {
		t.Fatal("dense generous budget: wrong word")
	}

	sp := SparseFromGraph(g, nil)
	if _, err := CanonicalSparseOpt(sp, Options{MaxLeaves: 2}); !errors.Is(err, ErrLeafBudget) {
		t.Fatalf("sparse tiny budget: got err=%v, want ErrLeafBudget", err)
	}
	sres, err := CanonicalSparseOpt(sp, Options{MaxLeaves: 1 << 20})
	if err != nil {
		t.Fatalf("sparse generous budget: %v", err)
	}
	if !bytes.Equal(sres.Word, CanonicalSparse(sp).Word) {
		t.Fatal("sparse generous budget: wrong word")
	}
}

// TestCanonicalOptCancel: a canceled context stops the search and surfaces
// context.Canceled, both when canceled before the search starts and when
// canceled from another goroutine mid-search.
func TestCanonicalOptCancel(t *testing.T) {
	c := FromGraph(graph.BlowupCycle(6, 3), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CanonicalOpt(c, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("dense pre-canceled ctx: got err=%v, want context.Canceled", err)
	}
	if _, err := CanonicalSparseOpt(SparseFromGraph(graph.BlowupCycle(6, 3), nil), Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sparse pre-canceled ctx: got err=%v, want context.Canceled", err)
	}

	// Mid-search cancellation races the search: it either finishes first
	// (err == nil with the right word) or observes the cancellation; it
	// must not hang or return a wrong word.
	big := FromGraph(graph.BlowupCycle(8, 4), nil)
	want := Canonical(big).Word
	ctx2, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	res, err := CanonicalOpt(big, Options{Ctx: ctx2})
	switch {
	case err == nil:
		if !bytes.Equal(res.Word, want) {
			t.Fatal("race with cancel: completed with wrong word")
		}
	case errors.Is(err, context.Canceled):
	default:
		t.Fatalf("race with cancel: unexpected error %v", err)
	}
}
