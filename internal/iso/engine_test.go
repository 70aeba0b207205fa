package iso

// Tests of the optimized engine's mechanics: the allocation-free refinement
// hot path, the explicit leaf budget, cancellation, and the exported
// equitable partition.

import (
	"bytes"
	"context"
	"errors"
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
		st := newCanonState(tc.c)
		lv := st.level(0)
		// Warm the scratch buffers once.
		st.initialPartition(lv)
		st.refine(lv)
		allocs := testing.AllocsPerRun(50, func() {
			st.initialPartition(lv)
			st.refine(lv)
		})
		if allocs != 0 {
			t.Errorf("%s: refine hot path allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
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
