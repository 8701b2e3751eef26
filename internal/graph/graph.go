// Package graph implements the directed-multigraph machinery of the paper's
// §2: depth-first arc classification into tree, forward, cross and back
// arcs (ahead = tree ∪ forward ∪ cross), reachability, strongly connected
// components, and the single/multiple/recurring node taxonomy.
//
// It is the reference implementation the paper-reproduction suite checks
// Example 2 against (experiment E2). The counting runtime does not call it:
// it classifies the arcs of the left-part graph itself while it explores
// them (internal/counting).
package graph

import (
	"fmt"
)

// Digraph is a directed multigraph over dense integer nodes. Parallel arcs
// and self-loops are allowed; arcs are identified by insertion index.
type Digraph struct {
	n    int
	from []int32
	to   []int32
	adj  [][]int32 // node → arc ids, in insertion order
}

// New returns a graph with n nodes and no arcs.
func New(n int) *Digraph {
	return &Digraph{n: n, adj: make([][]int32, n)}
}

// NumNodes returns the node count.
func (g *Digraph) NumNodes() int { return g.n }

// NumArcs returns the arc count.
func (g *Digraph) NumArcs() int { return len(g.from) }

// AddNode adds a node and returns its id.
func (g *Digraph) AddNode() int {
	g.n++
	g.adj = append(g.adj, nil)
	return g.n - 1
}

// AddArc adds an arc and returns its id.
func (g *Digraph) AddArc(from, to int) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range, n=%d", from, to, g.n))
	}
	id := len(g.from)
	g.from = append(g.from, int32(from))
	g.to = append(g.to, int32(to))
	g.adj[from] = append(g.adj[from], int32(id))
	return id
}

// Arc returns the endpoints of arc id.
func (g *Digraph) Arc(id int) (from, to int) {
	return int(g.from[id]), int(g.to[id])
}

// ArcsFrom returns the arc ids leaving v, in insertion order. The returned
// slice must not be mutated.
func (g *Digraph) ArcsFrom(v int) []int32 { return g.adj[v] }

// ArcClass is the DFS classification of one arc with respect to a source.
type ArcClass uint8

const (
	// Unreached marks arcs whose tail was never discovered.
	Unreached ArcClass = iota
	// Tree arcs form the DFS tree.
	Tree
	// Forward arcs go from a proper ancestor (not parent) to a descendant.
	Forward
	// Cross arcs join nodes unrelated by ancestry.
	Cross
	// Back arcs go from a node to one of its DFS ancestors (including
	// itself: a self-loop is a back arc). Every cycle reachable from the
	// source contains at least one back arc, so the ahead arcs
	// (tree+forward+cross) form an acyclic subgraph.
	Back
)

// String implements fmt.Stringer.
func (c ArcClass) String() string {
	switch c {
	case Tree:
		return "tree"
	case Forward:
		return "forward"
	case Cross:
		return "cross"
	case Back:
		return "back"
	default:
		return "unreached"
	}
}

// Ahead reports whether the class is tree, forward or cross.
func (c ArcClass) Ahead() bool { return c == Tree || c == Forward || c == Cross }

// Classification is the result of a depth-first classification from a
// source node.
type Classification struct {
	Source int
	// Class[arcID] is the arc's class; Unreached if its tail was not
	// visited.
	Class []ArcClass
	// Reached[v] reports whether v was discovered.
	Reached []bool
	// Disc[v] is the discovery index of v (-1 if unreached).
	Disc []int
	// Parent[v] is the tree parent of v (-1 for the source and unreached
	// nodes).
	Parent []int
}

// ClassifyDFS runs a deterministic depth-first search from source (arcs in
// insertion order) and classifies every arc whose tail is reached.
func (g *Digraph) ClassifyDFS(source int) *Classification {
	c := &Classification{
		Source:  source,
		Class:   make([]ArcClass, len(g.from)),
		Reached: make([]bool, g.n),
		Disc:    make([]int, g.n),
		Parent:  make([]int, g.n),
	}
	for i := range c.Disc {
		c.Disc[i] = -1
		c.Parent[i] = -1
	}
	onStack := make([]bool, g.n)
	finished := make([]bool, g.n)
	clock := 0

	// Iterative DFS so deep chains in benchmarks cannot overflow the
	// goroutine stack.
	type frame struct {
		v   int
		idx int // next adjacency index to consider
	}
	stack := []frame{{v: source}}
	c.Reached[source] = true
	c.Disc[source] = clock
	clock++
	onStack[source] = true

	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx >= len(g.adj[f.v]) {
			onStack[f.v] = false
			finished[f.v] = true
			stack = stack[:len(stack)-1]
			continue
		}
		arcID := g.adj[f.v][f.idx]
		f.idx++
		w := int(g.to[arcID])
		switch {
		case !c.Reached[w]:
			c.Class[arcID] = Tree
			c.Reached[w] = true
			c.Disc[w] = clock
			clock++
			c.Parent[w] = f.v
			onStack[w] = true
			stack = append(stack, frame{v: w})
		case onStack[w]:
			c.Class[arcID] = Back
		case c.Disc[w] > c.Disc[f.v]:
			c.Class[arcID] = Forward
		default:
			c.Class[arcID] = Cross
		}
	}
	return c
}

// ReachableFrom returns the set of nodes reachable from source.
func (g *Digraph) ReachableFrom(source int) []bool {
	seen := make([]bool, g.n)
	seen[source] = true
	work := []int{source}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, id := range g.adj[v] {
			w := int(g.to[id])
			if !seen[w] {
				seen[w] = true
				work = append(work, w)
			}
		}
	}
	return seen
}

// SCC returns the strongly connected components of the whole graph in
// reverse topological order (callees first), each as a sorted node list.
func (g *Digraph) SCC() [][]int {
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	counter := 0

	// Iterative Tarjan.
	type frame struct {
		v, idx int
	}
	var dfs func(root int)
	dfs = func(root int) {
		frames := []frame{{v: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.idx < len(g.adj[f.v]) {
				arcID := g.adj[f.v][f.idx]
				f.idx++
				w := int(g.to[arcID])
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Pop frame; propagate lowlink and emit component.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				// Sort for determinism.
				for i := 1; i < len(comp); i++ {
					for j := i; j > 0 && comp[j] < comp[j-1]; j-- {
						comp[j], comp[j-1] = comp[j-1], comp[j]
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if index[v] == -1 {
			dfs(v)
		}
	}
	return comps
}

// Multiplicity is the paper's §2 taxonomy of nodes with respect to a source:
// the number of distinct paths from the source.
type Multiplicity uint8

const (
	// NotReached: no path from the source.
	NotReached Multiplicity = iota
	// Single: exactly one path.
	Single
	// Multiple: a finite number of paths greater than one.
	Multiple
	// Recurring: infinitely many paths (a cycle lies on some path).
	Recurring
)

// String implements fmt.Stringer.
func (m Multiplicity) String() string {
	switch m {
	case Single:
		return "single"
	case Multiple:
		return "multiple"
	case Recurring:
		return "recurring"
	default:
		return "not-reached"
	}
}

// NodeMultiplicity computes the multiplicity of every node with respect to
// source. The empty path counts: the source itself is Single unless a cycle
// through it exists.
func (g *Digraph) NodeMultiplicity(source int) []Multiplicity {
	out := make([]Multiplicity, g.n)
	reach := g.ReachableFrom(source)

	// Nodes in a reachable cyclic SCC, or downstream of one, are
	// Recurring. Remaining reachable nodes get a saturating path count
	// over the acyclic remainder.
	comps := g.SCC()
	compOf := make([]int, g.n)
	cyclic := make([]bool, len(comps))
	for ci, comp := range comps {
		for _, v := range comp {
			compOf[v] = ci
		}
		if len(comp) > 1 {
			cyclic[ci] = true
		}
	}
	// Self-loops make a singleton SCC cyclic.
	for id := range g.from {
		if g.from[id] == g.to[id] {
			cyclic[compOf[g.from[id]]] = true
		}
	}

	// Saturating path counts: 0, 1, 2 (meaning ≥2), or -1 for infinite.
	const inf = -1
	count := make([]int, g.n)
	count[source] = 1
	if reach[source] && cyclic[compOf[source]] {
		count[source] = inf
	}
	// Process components in topological order. SCC() returns reverse
	// topological order, so iterate backwards.
	for ci := len(comps) - 1; ci >= 0; ci-- {
		// A reached cyclic component has infinitely many paths to every
		// node inside it; settle that before propagating outward.
		if cyclic[ci] {
			infected := false
			for _, v := range comps[ci] {
				if reach[v] && count[v] != 0 {
					infected = true
				}
			}
			if infected {
				for _, v := range comps[ci] {
					if reach[v] {
						count[v] = inf
					}
				}
			}
		}
		for _, v := range comps[ci] {
			if !reach[v] || count[v] == 0 {
				continue
			}
			for _, id := range g.adj[v] {
				w := int(g.to[id])
				if compOf[w] == ci {
					continue // internal arc, settled above
				}
				switch {
				case count[v] == inf:
					count[w] = inf
				case count[w] != inf:
					count[w] += count[v]
					if count[w] > 2 {
						count[w] = 2
					}
				}
			}
		}
	}

	for v := 0; v < g.n; v++ {
		switch {
		case !reach[v]:
			out[v] = NotReached
		case count[v] == inf:
			out[v] = Recurring
		case count[v] <= 1:
			out[v] = Single
		default:
			out[v] = Multiple
		}
	}
	return out
}
