package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildExample2 is the graph of the paper's Example 2: nodes a,b,c,d mapped
// to 0..3, arcs in the paper's listing order.
func buildExample2() (*Digraph, map[string]int, []string) {
	g := New(4)
	names := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	arcs := []string{"ab", "ac", "db", "cb", "bc", "ad"}
	for _, a := range arcs {
		g.AddArc(names[string(a[0])], names[string(a[1])])
	}
	return g, names, arcs
}

// TestExample2Classification reproduces Example 2 of the paper exactly:
// (a,b), (b,c), (a,d) are tree arcs, (a,c) forward, (d,b) cross, (c,b) back.
func TestExample2Classification(t *testing.T) {
	g, names, arcs := buildExample2()
	c := g.ClassifyDFS(names["a"])
	want := map[string]ArcClass{
		"ab": Tree, "bc": Tree, "ad": Tree,
		"ac": Forward, "db": Cross, "cb": Back,
	}
	for id, arc := range arcs {
		if got := c.Class[id]; got != want[arc] {
			t.Errorf("arc %s classified %v, want %v", arc, got, want[arc])
		}
	}
}

// TestExample2Multiplicity checks the paper's node taxonomy: a and d are
// single, b and c recurring.
func TestExample2Multiplicity(t *testing.T) {
	g, names, _ := buildExample2()
	m := g.NodeMultiplicity(names["a"])
	want := map[string]Multiplicity{
		"a": Single, "d": Single, "b": Recurring, "c": Recurring,
	}
	for n, id := range names {
		if m[id] != want[n] {
			t.Errorf("node %s multiplicity %v, want %v", n, m[id], want[n])
		}
	}
}

func TestMultipleWithoutCycle(t *testing.T) {
	// Diamond: 0→1, 0→2, 1→3, 2→3. Node 3 has two paths, no cycles.
	g := New(4)
	g.AddArc(0, 1)
	g.AddArc(0, 2)
	g.AddArc(1, 3)
	g.AddArc(2, 3)
	m := g.NodeMultiplicity(0)
	if m[0] != Single || m[1] != Single || m[2] != Single {
		t.Errorf("diamond prefix multiplicities wrong: %v", m)
	}
	if m[3] != Multiple {
		t.Errorf("diamond sink = %v, want Multiple", m[3])
	}
}

func TestNotReached(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1)
	m := g.NodeMultiplicity(0)
	if m[2] != NotReached {
		t.Errorf("isolated node = %v, want NotReached", m[2])
	}
	c := g.ClassifyDFS(0)
	if c.Reached[2] {
		t.Error("isolated node marked reached")
	}
}

func TestSelfLoopIsBackArcAndRecurring(t *testing.T) {
	g := New(2)
	g.AddArc(0, 0)
	g.AddArc(0, 1)
	c := g.ClassifyDFS(0)
	if c.Class[0] != Back {
		t.Errorf("self loop classified %v", c.Class[0])
	}
	m := g.NodeMultiplicity(0)
	if m[0] != Recurring || m[1] != Recurring {
		t.Errorf("self loop multiplicities = %v", m)
	}
}

func TestChainAllSingle(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddArc(i, i+1)
	}
	if hasBackArc(g.ClassifyDFS(0)) {
		t.Error("chain reported cyclic")
	}
	for v, m := range g.NodeMultiplicity(0) {
		if m != Single {
			t.Errorf("chain node %d = %v", v, m)
		}
	}
}

func TestParallelArcsMakeMultiple(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1)
	g.AddArc(0, 1)
	m := g.NodeMultiplicity(0)
	if m[1] != Multiple {
		t.Errorf("parallel arcs target = %v, want Multiple", m[1])
	}
	c := g.ClassifyDFS(0)
	if c.Class[0] != Tree || c.Class[1] != Forward {
		t.Errorf("parallel arcs classified %v, %v", c.Class[0], c.Class[1])
	}
}

func TestSCC(t *testing.T) {
	// 0↔1 cycle, 2→0, 2→3.
	g := New(4)
	g.AddArc(0, 1)
	g.AddArc(1, 0)
	g.AddArc(2, 0)
	g.AddArc(2, 3)
	comps := g.SCC()
	if len(comps) != 3 {
		t.Fatalf("got %d components: %v", len(comps), comps)
	}
	var cyc []int
	for _, c := range comps {
		if len(c) == 2 {
			cyc = c
		}
	}
	if len(cyc) != 2 || cyc[0] != 0 || cyc[1] != 1 {
		t.Errorf("cycle component = %v", cyc)
	}
	// Reverse topological: the {0,1} component must appear before {2}.
	pos := map[int]int{}
	for i, c := range comps {
		for _, v := range c {
			pos[v] = i
		}
	}
	if !(pos[0] < pos[2] && pos[3] < pos[2]) {
		t.Errorf("component order not reverse-topological: %v", comps)
	}
}

func TestReachableFrom(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(3, 0)
	r := g.ReachableFrom(0)
	want := []bool{true, true, true, false}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("reach[%d] = %v", i, r[i])
		}
	}
}

// hasBackArc reports whether a classification found a cycle: the
// reachable subgraph is acyclic iff no arc is classified back.
func hasBackArc(c *Classification) bool {
	for _, cl := range c.Class {
		if cl == Back {
			return true
		}
	}
	return false
}

func randomGraph(r *rand.Rand, n, arcs int) *Digraph {
	g := New(n)
	for i := 0; i < arcs; i++ {
		g.AddArc(r.Intn(n), r.Intn(n))
	}
	return g
}

// Property: ahead arcs from any classification form an acyclic subgraph.
func TestAheadSubgraphAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := randomGraph(r, n, r.Intn(3*n))
		src := r.Intn(n)
		c := g.ClassifyDFS(src)
		sub := New(n)
		for id, cl := range c.Class {
			if cl.Ahead() {
				from, to := g.Arc(id)
				sub.AddArc(from, to)
			}
		}
		// Check from every node: no back arcs anywhere in the subgraph.
		for v := 0; v < n; v++ {
			if hasBackArc(sub.ClassifyDFS(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every arc whose tail is reached gets a non-Unreached class, and
// arcs from unreached tails stay Unreached.
func TestClassificationCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		g := randomGraph(r, n, r.Intn(3*n))
		c := g.ClassifyDFS(r.Intn(n))
		for id := 0; id < g.NumArcs(); id++ {
			from, _ := g.Arc(id)
			if c.Reached[from] != (c.Class[id] != Unreached) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: acyclic-from-source iff no reachable node is Recurring.
func TestAcyclicIffNoRecurring(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		g := randomGraph(r, n, r.Intn(3*n))
		src := r.Intn(n)
		anyRecurring := false
		for _, m := range g.NodeMultiplicity(src) {
			if m == Recurring {
				anyRecurring = true
			}
		}
		return hasBackArc(g.ClassifyDFS(src)) == anyRecurring
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: multiplicities agree with explicit saturating path counting on
// small acyclic graphs.
func TestMultiplicityMatchesPathCountOnDAGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := New(n)
		// Only forward arcs i<j: guaranteed acyclic.
		for i := 0; i < 2*n; i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a < b {
				g.AddArc(a, b)
			}
		}
		src := 0
		// Brute-force path counting by DFS enumeration (saturating at 3).
		var count func(v int) int
		count = func(v int) int {
			if v == src {
				return 1
			}
			total := 0
			for id := 0; id < g.NumArcs(); id++ {
				from, to := g.Arc(id)
				if to == v {
					total += count(from)
					if total > 3 {
						return 3
					}
				}
			}
			return total
		}
		m := g.NodeMultiplicity(src)
		for v := 0; v < n; v++ {
			c := count(v)
			switch {
			case c == 0 && m[v] != NotReached:
				return false
			case c == 1 && m[v] != Single:
				return false
			case c >= 2 && m[v] != Multiple:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAddNodeAndArcBounds(t *testing.T) {
	g := New(1)
	id := g.AddNode()
	if id != 1 || g.NumNodes() != 2 {
		t.Errorf("AddNode = %d, nodes = %d", id, g.NumNodes())
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range arc did not panic")
		}
	}()
	g.AddArc(0, 5)
}
