// Package view implements Yamashita–Kameda views of edge-labeled, bicolored
// anonymous networks, the machinery behind the paper's necessary condition
// for election (Theorem 2.1).
//
// The view V(v) of a node v is the infinite edge-labeled rooted tree of all
// labeled walks out of v. Two nodes compute identically in an anonymous
// network iff their views are label-isomorphic. By Norris's theorem, views
// are equal iff they agree to depth n−1, so view equivalence is decidable;
// this package decides it by synchronized partition refinement (depth-k
// classes are exactly k rounds of refinement), keeps the explicit tree
// construction for display and cross-checking, and computes the
// symmetricity σ_ℓ(G) (the common size of the view classes) per labeling as
// well as σ(G) = max over labelings for small graphs.
package view

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Classes holds the view-equivalence classes of a labeled bicolored graph.
type Classes struct {
	// Class[v] is the class index of node v (indices are dense, starting
	// at 0, ordered by smallest member).
	Class []int
	// Members[i] lists the nodes of class i, ascending.
	Members [][]int
}

// Arc is one directed port of a port-labeled (multi)graph: the edge label on
// this side, the label on the far side, and the far endpoint.
type Arc struct {
	Lab, Far, To int
}

// Arcs returns the arc form of (g, l): Arcs(g, l)[v][p] is port p of v.
func Arcs(g *graph.Graph, l graph.EdgeLabeling) [][]Arc {
	arcs := make([][]Arc, g.N())
	for v := range arcs {
		arcs[v] = make([]Arc, g.Deg(v))
		for p, h := range g.Ports(v) {
			arcs[v][p] = Arc{Lab: l[v][p], Far: l[h.To][h.Twin], To: h.To}
		}
	}
	return arcs
}

// Refine partitions the nodes of a port-labeled graph, given in arc form
// with a per-node color (nil means all 0), by view-isomorphism to the given
// depth, via synchronized refinement:
//
//	class_0(v)   = (deg(v), color(v))
//	class_k+1(v) = (class_k(v), multiset over arcs of
//	                 (Lab, Far, class_k(To)))
//
// which mirrors the recursive definition of V^(k)(v) in the paper's proof
// of Theorem 2.1. Depth n−1 gives the full view classes (Norris), and
// refinement stops early once the partition is stable.
//
// Class ids are canonical: each round ranks the nodes' integer-tuple keys
// (the multiset sorted) lexicographically among the distinct keys, so ids
// depend only on the isomorphism type of the input, never on its node
// numbering. Because a key leads with the node's previous class, a round
// that does not split any class reproduces the previous ids exactly.
func Refine(arcs [][]Arc, color []int, depth int) []int {
	n := len(arcs)
	keys := make([][]int, n)
	flat := make([]int, 0, 2*n)
	for v := range arcs {
		col := 0
		if color != nil {
			col = color[v]
		}
		flat = append(flat, len(arcs[v]), col)
		keys[v] = flat[len(flat)-2:]
	}
	order := make([]int, n)
	cls := make([]int, n)
	rankTuples(keys, order, cls)

	m := 0
	for _, as := range arcs {
		m += len(as)
	}
	next := make([]int, n)
	var tri [][3]int
	flat = make([]int, 0, n+3*m)
	for k := 0; k < depth; k++ {
		flat = flat[:0]
		for v, as := range arcs {
			tri = tri[:0]
			for _, a := range as {
				tri = append(tri, [3]int{a.Lab, a.Far, cls[a.To]})
			}
			slices.SortFunc(tri, func(x, y [3]int) int { return slices.Compare(x[:], y[:]) })
			start := len(flat)
			flat = append(flat, cls[v])
			for _, t := range tri {
				flat = append(flat, t[0], t[1], t[2])
			}
			keys[v] = flat[start:]
		}
		rankTuples(keys, order, next)
		if slices.Equal(next, cls) {
			break // stabilized early; deeper views agree
		}
		cls, next = next, cls
	}
	return cls
}

// rankTuples sets ids[v] to the rank of keys[v] among the sorted distinct
// keys, using order as scratch.
func rankTuples(keys [][]int, order, ids []int) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(keys[a], keys[b]) })
	id := -1
	for i, v := range order {
		if i == 0 || !slices.Equal(keys[order[i-1]], keys[v]) {
			id++
		}
		ids[v] = id
	}
}

// ComputeClasses returns the view-equivalence classes of (g, l, colors).
// colors may be nil (all white). Norris's theorem bounds the needed depth
// by n−1; refinement stops as soon as it stabilizes.
func ComputeClasses(g *graph.Graph, l graph.EdgeLabeling, colors []int) (*Classes, error) {
	if err := l.Validate(g); err != nil {
		return nil, err
	}
	return fromAssignment(Refine(Arcs(g, l), colors, max(g.N()-1, 0))), nil
}

// ClassesAtDepth returns the coarser partition by views truncated at the
// given depth — exposed so tests can verify Norris's theorem empirically.
func ClassesAtDepth(g *graph.Graph, l graph.EdgeLabeling, colors []int, depth int) (*Classes, error) {
	if err := l.Validate(g); err != nil {
		return nil, err
	}
	return fromAssignment(Refine(Arcs(g, l), colors, depth)), nil
}

func fromAssignment(cls []int) *Classes {
	// Renumber classes by smallest member (Refine's ids are dense).
	renum := make([]int, len(cls))
	for i := range renum {
		renum[i] = -1
	}
	out := &Classes{Class: make([]int, len(cls))}
	for v, c := range cls {
		if renum[c] < 0 {
			renum[c] = len(out.Members)
			out.Members = append(out.Members, nil)
		}
		nc := renum[c]
		out.Class[v] = nc
		out.Members[nc] = append(out.Members[nc], v)
	}
	return out
}

// Count returns the number of classes.
func (c *Classes) Count() int { return len(c.Members) }

// SameView reports whether nodes u and v have label-isomorphic views.
func (c *Classes) SameView(u, v int) bool { return c.Class[u] == c.Class[v] }

// Sizes returns the class sizes in class order.
func (c *Classes) Sizes() []int {
	out := make([]int, len(c.Members))
	for i, m := range c.Members {
		out[i] = len(m)
	}
	return out
}

// Symmetricity returns σ_ℓ(G): the common size of all view classes. In a
// connected graph all classes have the same size (Yamashita–Kameda); the
// second return value reports whether that held (it always should — a false
// indicates a non-connected input or an internal error).
func (c *Classes) Symmetricity() (int, bool) {
	if len(c.Members) == 0 {
		return 0, false
	}
	s := len(c.Members[0])
	for _, m := range c.Members {
		if len(m) != s {
			return 0, false
		}
	}
	return s, true
}

// Tree is an explicit truncated view V^(k)(v): a rooted tree whose edges
// carry the pair of labels of the graph edge they traverse, and whose nodes
// carry the black/white color. Used for display (Figure 2) and as an oracle
// in tests; the refinement path above is the efficient implementation.
type Tree struct {
	Color int
	// Children are ordered by (LabelHere, LabelThere) then recursively;
	// ordering is canonical so DeepEqual on rendered forms is meaningful.
	Children []TreeEdge
}

// TreeEdge is a downward edge of a view tree.
type TreeEdge struct {
	LabelHere  int // label at the parent's graph node
	LabelThere int // label at the child's graph node
	Child      *Tree
}

// BuildTree constructs V^(depth)(v) explicitly. Exponential in depth; keep
// depth small (tests use depth <= 6).
func BuildTree(g *graph.Graph, l graph.EdgeLabeling, colors []int, v, depth int) *Tree {
	col := 0
	if colors != nil {
		col = colors[v]
	}
	t := &Tree{Color: col}
	if depth == 0 {
		return t
	}
	for p, h := range g.Ports(v) {
		t.Children = append(t.Children, TreeEdge{
			LabelHere:  l[v][p],
			LabelThere: l[h.To][h.Twin],
			Child:      BuildTree(g, l, colors, h.To, depth-1),
		})
	}
	sort.Slice(t.Children, func(i, j int) bool {
		a, b := t.Children[i], t.Children[j]
		if a.LabelHere != b.LabelHere {
			return a.LabelHere < b.LabelHere
		}
		if a.LabelThere != b.LabelThere {
			return a.LabelThere < b.LabelThere
		}
		return a.Child.render() < b.Child.render()
	})
	return t
}

// render serializes the tree canonically.
func (t *Tree) render() string {
	var b strings.Builder
	t.renderTo(&b)
	return b.String()
}

func (t *Tree) renderTo(b *strings.Builder) {
	fmt.Fprintf(b, "c%d(", t.Color)
	for i, e := range t.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d/%d->", e.LabelHere, e.LabelThere)
		e.Child.renderTo(b)
	}
	b.WriteByte(')')
}

// Equal reports whether two view trees are label-isomorphic (children are
// canonically ordered, so structural equality suffices).
func (t *Tree) Equal(o *Tree) bool { return t.render() == o.render() }

// String renders the tree canonically (one line).
func (t *Tree) String() string { return t.render() }

// SymmetricityMax computes σ(G) = max over all edge-labelings ℓ of σ_ℓ(G),
// by exhaustive enumeration of labelings (each node independently permutes
// labels 0..deg−1 over its ports). The number of labelings is ∏ deg(v)!,
// so this is only feasible for tiny graphs; limit caps the number of
// labelings tried (0 means 10^7) and an error is returned if exceeded.
func SymmetricityMax(g *graph.Graph, colors []int, limit int) (int, graph.EdgeLabeling, error) {
	if limit <= 0 {
		limit = 10_000_000
	}
	total := 1
	for v := 0; v < g.N(); v++ {
		f := factorial(g.Deg(v))
		if total > limit/max(f, 1) {
			return 0, nil, fmt.Errorf("view: labeling space exceeds limit %d", limit)
		}
		total *= f
	}
	best := 0
	var bestL graph.EdgeLabeling
	l := graph.PortLabeling(g)
	var rec func(v int) error
	rec = func(v int) error {
		if v == g.N() {
			cl, err := ComputeClasses(g, l, colors)
			if err != nil {
				return err
			}
			if s, ok := cl.Symmetricity(); ok && s > best {
				best = s
				bestL = l.Clone()
			}
			return nil
		}
		perms := permutations(g.Deg(v))
		for _, p := range perms {
			l[v] = p
			if err := rec(v + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return 0, nil, err
	}
	return best, bestL, nil
}

func permutations(n int) [][]int {
	var out [][]int
	cur := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				cur = append(cur, i)
				rec()
				cur = cur[:len(cur)-1]
				used[i] = false
			}
		}
	}
	rec()
	return out
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}
