package iso

import (
	"slices"
	"sync"

	"repro/internal/perm"
)

// canonState drives one canonical labeling search. All scratch (partition
// levels, refinement worklists, the path's word prefix, orbit union-finds,
// the dense input's CSR) is owned here and reused across the whole
// backtracking tree, and states themselves are pooled across searches
// (acquireState/release): a search on a warm state allocates only the
// slices of its returned Result.
//
// One state serves both engines: the dense engine (c != nil) serializes the
// n+n² growing-principal-submatrix word of DESIGN.md §8, the sparse engine
// (sparse == true) the O(n+m) varint word of DESIGN.md §13.
type canonState struct {
	c      *Colored // dense input (nil in sparse mode)
	colors []int    // vertex colors (c.Color or the Sparse's colors)
	g      *csr     // &denseCSR in dense mode, the Sparse's own CSR otherwise
	n      int
	sparse bool

	// denseCSR holds the dense input's arcs, rebuilt in place per search.
	denseCSR csr

	// Search outcome. best, bperm and autos become the returned Result's
	// Word, Perm and AutoGens, so they are detached on release and never
	// reused; bpermInv and cand are scratch.
	best     []byte      // minimum leaf word so far (full serialization)
	bperm    perm.Perm   // ordering that produced best (vertex -> position)
	bpermInv []int       // position -> vertex, maintained with bperm
	autos    []perm.Perm // discovered automorphisms (see leaf handling)
	cand     perm.Perm   // candidate automorphism at an equal leaf
	bestGen  int         // bumped every time best is replaced

	// prefix is the serialized word of the current path, valid up to the
	// bytes determined by the path's leading singleton cells. prefix[0:n]
	// (dense mode: the color bytes; sparse mode: the color varints) is
	// constant across the entire tree: initial cells are monochromatic and
	// occupy fixed position ranges that refinement and individualization
	// only subdivide.
	prefix []byte

	// base is the stack of individualized vertices on the current path;
	// the orbit pruning at each node is relative to it.
	base []int

	// levels pools the partition state per search depth; the first fitted
	// of them are sized for the current n (see level).
	levels []*level
	fitted int

	// leaves counts visited leaves; when maxLeaves > 0 and the count would
	// exceed it, budgetHit aborts the search (CanonicalOpt returns
	// ErrLeafBudget — an explicit failure, never a truncated word).
	leaves    int
	maxLeaves int
	budgetHit bool

	// done, when non-nil, is a cancellation signal (a context's Done
	// channel) polled once per search node; stopped records that it fired
	// and the search result is void.
	done    <-chan struct{}
	stopped bool

	// Search-shape counters, flushed to the package stats once per search
	// (plain ints: each state runs on one goroutine).
	nodes        int
	orbitPrunes  int
	prefixPrunes int

	// Worklist-refinement scratch (refine.go). Cells are identified by
	// start position during a refine: cellEnd[s] ends the cell starting at
	// s, cellOf[v] is the start of v's cell, cnt* accumulate one splitter
	// fragment's arc counts, and the remaining slices/bitsets carry the
	// per-pass key and split-parent bookkeeping.
	cellOf       []int32
	cellEnd      []int32
	cntOut       []int32
	cntIn        []int32
	touched      []int32
	affCells     []int32
	fragBounds   []int32
	fragList     []int32
	fragParent   []int32
	splitParents []int32
	passEnd      []int32
	keysA        []int32
	keysB        []int32
	cellMark     bitset
	isFrag       bitset
	parentMark   bitset
	sortTmp      []int
	colorCounts  []int32

	// Sparse-word scratch: posOf[v] is v's position when v is placed on the
	// current determined prefix (-1 otherwise); blk* accumulate one word
	// block's per-position multiplicities.
	posOf  []int32
	blkOut []int32
	blkIn  []int32
	blkIdx []int32
}

// statePool recycles canonStates across searches. A state reused for an
// n-vertex search keeps every buffer whose capacity fits n and clears only
// the first n entries of those that must start zeroed, so a small search
// never pays for a large predecessor's buffers.
var statePool = sync.Pool{New: func() any { return new(canonState) }}

// acquireState returns a pooled state ready to search the dense input c or,
// when c is nil, the sparse input sp. The caller owns it until release.
func acquireState(c *Colored, sp *Sparse) *canonState {
	st := statePool.Get().(*canonState)
	if c != nil {
		st.c, st.colors = c, c.Color
		st.denseCSR.build(c)
		st.g = &st.denseCSR
		st.fitScratch(c.N, c.N+c.N*c.N)
		return st
	}
	n := sp.N
	st.colors, st.g, st.sparse = sp.Color, sp.g, true
	st.fitScratch(n, 0)
	st.posOf = fit(st.posOf, n)
	for i := range st.posOf {
		st.posOf[i] = -1
	}
	st.blkOut = fitZero(st.blkOut, n)
	st.blkIn = fitZero(st.blkIn, n)
	st.blkIdx = fit(st.blkIdx, n)[:0]
	return st
}

// release returns st to the pool. The Result slices (best, bperm, autos)
// are detached first, so they stay owned by the Result that carries them,
// and the input and cancellation references are dropped.
func (st *canonState) release() {
	st.c, st.colors, st.g, st.sparse = nil, nil, nil, false
	st.best, st.bperm, st.autos = nil, nil, nil
	st.bestGen, st.leaves, st.maxLeaves, st.budgetHit = 0, 0, 0, false
	st.done, st.stopped = nil, false
	st.nodes, st.orbitPrunes, st.prefixPrunes = 0, 0, 0
	statePool.Put(st)
}

// fitScratch sizes the mode-independent scratch for an n-vertex search.
// Buffers that are fully written before they are read keep stale contents;
// the count arrays and bitsets, which the refinement expects zeroed, are
// cleared over their first n entries.
func (st *canonState) fitScratch(n, prefixCap int) {
	st.n = n
	st.fitted = 0
	st.prefix = fit(st.prefix, prefixCap)[:0]
	st.base = fit(st.base, n)[:0]
	st.bpermInv = fit(st.bpermInv, n)
	st.cand = fit(st.cand, n)
	st.cellOf = fit(st.cellOf, n)
	st.cellEnd = fit(st.cellEnd, n+1)
	st.cntOut = fitZero(st.cntOut, n)
	st.cntIn = fitZero(st.cntIn, n)
	st.touched = fit(st.touched, n)[:0]
	st.affCells = fit(st.affCells, n)[:0]
	st.fragBounds = fit(st.fragBounds, n)[:0]
	st.fragList = fit(st.fragList, n)[:0]
	st.fragParent = fit(st.fragParent, n)
	st.splitParents = fit(st.splitParents, n)[:0]
	st.passEnd = fit(st.passEnd, n+1)
	st.keysA = fit(st.keysA, 2*n)[:0]
	st.keysB = fit(st.keysB, 2*n)[:0]
	words := (n + 1 + 63) / 64
	st.cellMark = fitZero(st.cellMark, words)
	st.isFrag = fitZero(st.isFrag, words)
	st.parentMark = fitZero(st.parentMark, words)
	st.sortTmp = fit(st.sortTmp, n)
}

// fit returns s resliced to length n, or a fresh slice when its capacity
// is too small. The contents are unspecified.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fitZero is fit with the n entries cleared.
func fitZero[T any](s []T, n int) []T {
	s = fit(s, n)
	clear(s)
	return s
}

// level returns the partition state for the given search depth, sizing
// pooled levels for the current n on first use in this search and
// allocating new ones only beyond the deepest level any pooled search
// reached.
func (st *canonState) level(depth int) *level {
	for len(st.levels) <= depth {
		st.levels = append(st.levels, new(level))
	}
	for ; st.fitted <= depth; st.fitted++ {
		lv := st.levels[st.fitted]
		lv.lab = fit(lv.lab, st.n)
		lv.cellStart = fit(lv.cellStart, st.n+1)[:0]
		lv.uf = fit(lv.uf, st.n)
		lv.tried = fit(lv.tried, st.n)[:0]
		lv.ncells, lv.ufGen = 0, -1
	}
	return st.levels[depth]
}

// halted reports whether this state must stop searching: its leaf budget is
// spent or its cancellation signal fired.
func (st *canonState) halted() bool {
	if st.budgetHit || st.stopped {
		return true
	}
	if st.done != nil {
		select {
		case <-st.done:
			st.stopped = true
			return true
		default:
		}
	}
	return false
}

func (st *canonState) run() {
	lv := st.level(0)
	st.initialPartition(lv)
	st.prepareRootPrefix(lv)
	st.search(0, 0, -1, -1)
}

// prepareRootPrefix emits the constant color section of the word.
func (st *canonState) prepareRootPrefix(lv *level) {
	st.prefix = st.prefix[:0]
	if st.sparse {
		for _, v := range lv.lab {
			st.prefix = appendUvarint(st.prefix, uint64(st.colors[v]))
		}
	} else {
		for _, v := range lv.lab {
			st.prefix = append(st.prefix, byte(st.colors[v]))
		}
	}
}

// search explores the subtree rooted at level depth, whose partition has
// been individualized but not yet refined. fixed is the number of leading
// singleton cells of the parent (whose word bytes are already in prefix).
// cmp is the relation of the path's determined word bytes to best:
// -1 strictly smaller (or best unset), 0 equal so far. Subtrees whose
// determined bytes exceed best are pruned before reaching a leaf. hint >= 0
// names the cell just individualized, seeding the worklist refinement with
// only that singleton (see refineSingle); the root passes -1.
func (st *canonState) search(depth, fixed, cmp, hint int) {
	if st.halted() {
		return
	}
	st.nodes++
	lv := st.levels[depth]
	if hint >= 0 {
		st.refineSingle(lv, hint)
	} else {
		st.refine(lv)
	}

	// Extend the determined prefix over the new leading singleton cells
	// and compare incrementally against best.
	pl0 := len(st.prefix)
	k := fixed
	for k < lv.ncells && lv.cellStart[k+1]-lv.cellStart[k] == 1 {
		k++
	}
	if st.sparse {
		for i := fixed; i < k; i++ {
			st.posOf[lv.lab[i]] = int32(i)
		}
		for i := fixed; i < k; i++ {
			st.appendSparseBlock(i, lv.lab[i])
		}
	} else {
		for i := fixed; i < k; i++ {
			st.prefix = appendBlock(st.prefix, st.c, lv.lab, i, lv.lab[i])
		}
	}
	if cmp == 0 {
		cmp = st.compareNewBytes(pl0)
	}
	if cmp > 0 {
		st.prefixPrunes++
		st.retreat(lv, fixed, k, pl0)
		return // partial word already exceeds best: prune
	}

	if lv.discrete(st.n) {
		st.leaf(lv, cmp)
		st.retreat(lv, fixed, k, pl0)
		return
	}

	// Branch on the first smallest non-singleton cell.
	target, targetLen := -1, st.n+1
	for t := 0; t < lv.ncells; t++ {
		if l := int(lv.cellStart[t+1] - lv.cellStart[t]); l > 1 && l < targetLen {
			target, targetLen = t, l
		}
	}
	s, e := int(lv.cellStart[target]), int(lv.cellStart[target+1])
	lv.tried = lv.tried[:0]
	for ci := s; ci < e; ci++ {
		v := lv.lab[ci]
		// Orbit pruning: vertices of the cell in one orbit of the
		// base-pointwise stabilizer of the discovered automorphism group
		// lead to identical subtrees; explore one per orbit.
		if st.inOrbitOfTried(lv, v) {
			st.orbitPrunes++
			continue
		}
		lv.tried = append(lv.tried, v)
		child := st.level(depth + 1)
		child.copyFrom(lv)
		child.individualize(target, v)
		st.base = append(st.base, v)
		gen := st.bestGen
		st.search(depth+1, k, cmp, target)
		st.base = st.base[:len(st.base)-1]
		if st.halted() {
			break
		}
		if st.bestGen != gen {
			// best was replaced by a leaf of the subtree just explored, so
			// this node's determined prefix is a prefix of (hence equal to)
			// the new best's.
			cmp = 0
		}
	}
	st.retreat(lv, fixed, k, pl0)
}

// retreat undoes a node's prefix extension (and, sparse mode, its position
// placements) on the way back up.
func (st *canonState) retreat(lv *level, fixed, k, pl0 int) {
	st.prefix = st.prefix[:pl0]
	if st.sparse {
		for i := fixed; i < k; i++ {
			st.posOf[lv.lab[i]] = -1
		}
	}
}

// compareNewBytes compares the prefix bytes appended by the current node
// (prefix[pl0:]) against best. In sparse mode words vary in length; a
// candidate that runs past best's end with all bytes equal is strictly
// greater (best is a proper prefix of it), matching bytes.Compare.
func (st *canonState) compareNewBytes(pl0 int) int {
	p, b := st.prefix, st.best
	for i := pl0; i < len(p); i++ {
		if i >= len(b) {
			return 1
		}
		if p[i] != b[i] {
			if p[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// appendSparseBlock appends position i's block of the sparse word: the
// varint count of placed positions j <= i adjacent to v_i, then for each
// such j ascending the triple (j, mult v_i->v_j, mult v_j->v_i) as varints.
// Together with the color section this reconstructs the adjacency among the
// placed prefix, so the full word is an injective serialization, and block
// i depends only on positions 0..i — the property incremental prefix
// pruning needs.
func (st *canonState) appendSparseBlock(i, vi int) {
	g := st.g
	idx := st.blkIdx[:0]
	for a := g.outStart[vi]; a < g.outStart[vi+1]; a++ {
		j := st.posOf[g.outDst[a]]
		if j >= 0 && int(j) <= i {
			if st.blkOut[j] == 0 && st.blkIn[j] == 0 {
				idx = append(idx, j)
			}
			st.blkOut[j] += g.outMult[a]
		}
	}
	for a := g.inStart[vi]; a < g.inStart[vi+1]; a++ {
		j := st.posOf[g.inDst[a]]
		if j >= 0 && int(j) <= i {
			if st.blkOut[j] == 0 && st.blkIn[j] == 0 {
				idx = append(idx, j)
			}
			st.blkIn[j] += g.inMult[a]
		}
	}
	sortInt32s(idx)
	st.prefix = appendUvarint(st.prefix, uint64(len(idx)))
	for _, j := range idx {
		st.prefix = appendUvarint(st.prefix, uint64(j))
		st.prefix = appendUvarint(st.prefix, uint64(st.blkOut[j]))
		st.prefix = appendUvarint(st.prefix, uint64(st.blkIn[j]))
		st.blkOut[j], st.blkIn[j] = 0, 0
	}
	st.blkIdx = idx[:0]
}

// isAutomorphism dispatches the automorphism check to the input
// representation.
func (st *canonState) isAutomorphism(a perm.Perm) bool {
	if st.c != nil {
		return st.c.IsAutomorphism(a)
	}
	return csrIsAutomorphism(st.g, st.colors, a)
}

// leaf handles a discrete partition: prefix now holds the full leaf word.
func (st *canonState) leaf(lv *level, cmp int) {
	st.leaves++
	if st.maxLeaves > 0 && st.leaves > st.maxLeaves {
		st.budgetHit = true
		return
	}
	if cmp == 0 && len(st.prefix) != len(st.best) {
		// Sparse words vary in length: all determined bytes equal but the
		// candidate ended first means it is strictly smaller (the longer
		// case was pruned during compareNewBytes).
		cmp = -1
	}
	switch cmp {
	case -1:
		// Strictly smaller than best at some determined byte (or best
		// unset): install as the new best.
		st.best = append(st.best[:0], st.prefix...)
		if st.bperm == nil {
			st.bperm = make(perm.Perm, st.n)
		}
		for pos, v := range lv.lab {
			st.bperm[v] = pos
			st.bpermInv[pos] = v
		}
		st.bestGen++
	case 0:
		// Equal to best: lab and bperm induce the same canonical graph,
		// so bperm⁻¹∘cand is an automorphism of c. The candidate is built
		// in scratch and copied out only when it is one.
		a := st.cand
		for pos, v := range lv.lab {
			a[v] = st.bpermInv[pos]
		}
		if !a.IsIdentity() && st.isAutomorphism(a) {
			st.autos = append(st.autos, slices.Clone(a))
		}
	}
}

// inOrbitOfTried reports whether some already-tried branch vertex maps to v
// under the subgroup of discovered automorphisms fixing the current base
// pointwise. The orbit partition is a union-find over the stabilizer's
// generators, cached on the level and rebuilt only when new automorphisms
// have been discovered since — no stabilizer recomputation and no
// permutation inversions in the loop (inverses are not needed at all:
// union(i, a[i]) over generators already yields the generated group's
// orbits).
func (st *canonState) inOrbitOfTried(lv *level, v int) bool {
	if len(lv.tried) == 0 || len(st.autos) == 0 {
		return false
	}
	if lv.ufGen != len(st.autos) {
		for i := range lv.uf {
			lv.uf[i] = int32(i)
		}
		for _, a := range st.autos {
			fixesBase := true
			for _, b := range st.base {
				if a[b] != b {
					fixesBase = false
					break
				}
			}
			if !fixesBase {
				continue
			}
			for i, ai := range a {
				ufUnion(lv.uf, int32(i), int32(ai))
			}
		}
		lv.ufGen = len(st.autos)
	}
	r := ufFind(lv.uf, int32(v))
	for _, t := range lv.tried {
		if ufFind(lv.uf, int32(t)) == r {
			return true
		}
	}
	return false
}

func ufFind(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

func ufUnion(uf []int32, a, b int32) {
	ra, rb := ufFind(uf, a), ufFind(uf, b)
	if ra != rb {
		uf[ra] = rb
	}
}
