// Package workload generates the synthetic databases the experiments run
// on. The shapes follow the benchmark tradition the paper's comparisons
// cite (Bancilhon & Ramakrishnan [4]): chains, trees, cylinders and random
// graphs for the same-generation program, plus the cyclic and multi-rule
// variants the paper's extensions target.
//
// All generators are deterministic and return Datalog fact text, so the
// same dataset can feed the library API, the CLI tools and the benchmark
// harness.
package workload

import (
	"fmt"
	"strings"
)

// Chain builds a linear same-generation instance: an up chain of length n
// from the query node u0, a single flat arc at the top, and a down chain of
// the same length. The query sg(u0, Y) has exactly one answer at depth n.
//
//	up(u0,u1). … up(u{n-1},un). flat(un,dn). down(dn,d{n-1}). … down(d1,d0).
func Chain(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "up(u%d,u%d).\n", i, i+1)
	}
	fmt.Fprintf(&sb, "flat(u%d,d%d).\n", n, n)
	for i := n; i > 0; i-- {
		fmt.Fprintf(&sb, "down(d%d,d%d).\n", i, i-1)
	}
	return sb.String()
}

// Cylinder builds the layered instance on which the counting method beats
// magic sets by a factor of the width: `depth` layers of `width` nodes;
// every node has `fan` up-arcs into the next layer (wrapping), flat arcs
// connect the top layer to the top of a mirrored down cylinder. All paths
// from the query node u_0_0 to layer l have length l, so the counting set
// stays linear while the magic-restricted answer relation is quadratic in
// the width.
func Cylinder(depth, width, fan int) string {
	var sb strings.Builder
	for l := 0; l < depth; l++ {
		for j := 0; j < width; j++ {
			for k := 0; k < fan; k++ {
				fmt.Fprintf(&sb, "up(u_%d_%d,u_%d_%d).\n", l, j, l+1, (j+k)%width)
			}
		}
	}
	for j := 0; j < width; j++ {
		fmt.Fprintf(&sb, "flat(u_%d_%d,d_%d_%d).\n", depth, j, depth, j)
	}
	for l := depth; l > 0; l-- {
		for j := 0; j < width; j++ {
			for k := 0; k < fan; k++ {
				fmt.Fprintf(&sb, "down(d_%d_%d,d_%d_%d).\n", l, j, l-1, (j+k)%width)
			}
		}
	}
	return sb.String()
}

// CylinderQuery is the bound query node of Cylinder instances.
const CylinderQuery = "u_0_0"

// Tree builds a same-generation instance over a complete tree: `up` holds
// the child→parent arcs of a complete `fanout`-ary tree of the given
// depth, `down` its inverse, and a single flat arc reflects the root. The
// query from the leftmost leaf answers every leaf of equal depth.
func Tree(fanout, depth int) string {
	var sb strings.Builder
	// Nodes are numbered heap-style per level: t_<level>_<index>.
	for l := depth; l > 0; l-- {
		count := pow(fanout, l)
		for j := 0; j < count; j++ {
			fmt.Fprintf(&sb, "up(t_%d_%d,t_%d_%d).\n", l, j, l-1, j/fanout)
			fmt.Fprintf(&sb, "down(s_%d_%d,s_%d_%d).\n", l-1, j/fanout, l, j)
		}
	}
	sb.WriteString("flat(t_0_0,s_0_0).\n")
	return sb.String()
}

// TreeQuery returns the bound query node of a Tree instance: the leftmost
// leaf.
func TreeQuery(depth int) string { return fmt.Sprintf("t_%d_0", depth) }

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// Grid builds a same-generation instance over a rectangular grid without
// wraparound: each up node u_l_j reaches u_{l+1}_j and u_{l+1}_{j+1}.
// Like the cylinder it is layered (all paths to a node have equal length),
// but boundary nodes have fewer successors, so answer sets thin toward the
// edges.
func Grid(depth, width int) string {
	var sb strings.Builder
	for l := 0; l < depth; l++ {
		for j := 0; j < width; j++ {
			fmt.Fprintf(&sb, "up(u_%d_%d,u_%d_%d).\n", l, j, l+1, j)
			if j+1 < width {
				fmt.Fprintf(&sb, "up(u_%d_%d,u_%d_%d).\n", l, j, l+1, j+1)
			}
		}
	}
	for j := 0; j < width; j++ {
		fmt.Fprintf(&sb, "flat(u_%d_%d,d_%d_%d).\n", depth, j, depth, j)
	}
	for l := depth; l > 0; l-- {
		for j := 0; j < width; j++ {
			fmt.Fprintf(&sb, "down(d_%d_%d,d_%d_%d).\n", l, j, l-1, j)
			if j+1 < width {
				fmt.Fprintf(&sb, "down(d_%d_%d,d_%d_%d).\n", l, j, l-1, j+1)
			}
		}
	}
	return sb.String()
}

// GridQuery is the bound query node of Grid instances.
const GridQuery = "u_0_0"

// InvertedTree builds an instance where the up relation fans out from the
// query node: every node at level l has `fanout` parents at level l+1, so
// the counting set itself grows exponentially with the depth — the
// worst-case shape for every binding-propagation method (magic's set grows
// identically). Use small depths.
func InvertedTree(fanout, depth int) string {
	var sb strings.Builder
	for l := 0; l < depth; l++ {
		count := pow(fanout, l)
		for j := 0; j < count; j++ {
			for k := 0; k < fanout; k++ {
				fmt.Fprintf(&sb, "up(i_%d_%d,i_%d_%d).\n", l, j, l+1, j*fanout+k)
			}
		}
	}
	top := pow(fanout, depth)
	for j := 0; j < top; j++ {
		fmt.Fprintf(&sb, "flat(i_%d_%d,o_%d_%d).\n", depth, j, depth, j)
	}
	for l := depth; l > 0; l-- {
		count := pow(fanout, l)
		for j := 0; j < count; j++ {
			fmt.Fprintf(&sb, "down(o_%d_%d,o_%d_%d).\n", l, j, l-1, j/fanout)
		}
	}
	return sb.String()
}

// InvertedTreeQuery is the bound query node of InvertedTree instances.
const InvertedTreeQuery = "i_0_0"

// ShortcutChain builds the acyclic instance exhibiting the n² counting-set
// behaviour of §3.4: a chain v0 → v1 → … → vn with an additional shortcut
// v_i → v_{i+2} from every even node, so node v_k is reachable by paths of
// many different lengths. The list-based counting set holds one tuple per
// (node, path shape); the pointer-based runtime holds one node per value.
func ShortcutChain(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "up(v%d,v%d).\n", i, i+1)
		if i%2 == 0 && i+2 <= n {
			fmt.Fprintf(&sb, "up(v%d,v%d).\n", i, i+2)
		}
	}
	fmt.Fprintf(&sb, "flat(v%d,w%d).\n", n, n)
	for i := n; i > 0; i-- {
		fmt.Fprintf(&sb, "down(w%d,w%d).\n", i, i-1)
		if i%2 == 0 && i-2 >= 0 {
			fmt.Fprintf(&sb, "down(w%d,w%d).\n", i, i-2)
		}
	}
	return sb.String()
}

// CyclicChain builds a chain of length n whose up relation additionally
// contains back arcs closing a cycle of the given period, the shape of the
// paper's Example 5. Classical counting diverges on it; the runtime and
// magic sets terminate.
func CyclicChain(n, period int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "up(u%d,u%d).\n", i, i+1)
	}
	for i := period; i <= n; i += period {
		fmt.Fprintf(&sb, "up(u%d,u%d).\n", i, i-period)
	}
	fmt.Fprintf(&sb, "flat(u%d,d%d).\n", n, 3*n)
	for i := 3 * n; i > 0; i-- {
		fmt.Fprintf(&sb, "down(d%d,d%d).\n", i, i-1)
	}
	return sb.String()
}

// MultiRule builds an instance for programs with k recursive rules
// (Example 3 scaled): a chain of depth n whose level-i arc belongs to
// relation up<1+(i%k)>, with matching down<j> chains mirrored in reverse
// rule order, so only the correctly sequenced answers exist.
func MultiRule(n, k int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "up%d(u%d,u%d).\n", 1+i%k, i, i+1)
	}
	fmt.Fprintf(&sb, "flat(u%d,d%d).\n", n, n)
	for i := n; i > 0; i-- {
		// Undoing level i-1's up rule.
		fmt.Fprintf(&sb, "down%d(d%d,d%d).\n", 1+(i-1)%k, i, i-1)
	}
	return sb.String()
}

// SharedVarChain builds an instance for the shared-variable rules of
// Example 4: up(X,X1,W) and down(Y1,Y,W) must agree on W. Half of the down
// arcs carry a wrong tag and must be filtered by the counting information.
func SharedVarChain(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "up(u%d,u%d,w%d).\n", i, i+1, i%3)
	}
	fmt.Fprintf(&sb, "flat(u%d,d%d).\n", n, n)
	for i := n; i > 0; i-- {
		fmt.Fprintf(&sb, "down(d%d,d%d,w%d).\n", i, i-1, (i-1)%3)
		fmt.Fprintf(&sb, "down(d%d,x%d,w%d).\n", i, i-1, (i+1)%3)
	}
	return sb.String()
}

// RightLinearChain builds data for the right-linear program
// p(X,Y) ← up(X,X1), p(X1,Y): an up chain with `answers` flat arcs at the
// top. Every position of the chain reaches the same answers, which is what
// the reduction exploits.
func RightLinearChain(n, answers int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "up(u%d,u%d).\n", i, i+1)
	}
	for a := 0; a < answers; a++ {
		fmt.Fprintf(&sb, "flat(u%d,ans%d).\n", n, a)
	}
	return sb.String()
}

// Branchy builds a selectivity workload: one chain of length depth that is
// relevant to the query sg(u0, Y), plus `branches` disconnected chains of
// the same shape that only bottom-up evaluation wastes time on. The
// relevant fraction of the database is 1/(branches+1); binding-propagation
// methods should cost ~O(depth) regardless of branches.
func Branchy(depth, branches int) string {
	var sb strings.Builder
	emit := func(prefix string) {
		for i := 0; i < depth; i++ {
			fmt.Fprintf(&sb, "up(%su%d,%su%d).\n", prefix, i, prefix, i+1)
		}
		fmt.Fprintf(&sb, "flat(%su%d,%sd%d).\n", prefix, depth, prefix, depth)
		for i := depth; i > 0; i-- {
			fmt.Fprintf(&sb, "down(%sd%d,%sd%d).\n", prefix, i, prefix, i-1)
		}
	}
	emit("") // the relevant chain: u0 … udepth
	for b := 0; b < branches; b++ {
		emit(fmt.Sprintf("x%d_", b))
	}
	return sb.String()
}

// Random builds a pseudo-random same-generation instance with the given
// node and arc counts; when cyclic is false, arcs only go from lower to
// higher node indices. Deterministic in seed.
func Random(seed, nodes, arcs int, cyclic bool) string {
	r := rng(seed)
	var sb strings.Builder
	for i := 0; i < arcs; i++ {
		a, b := r(nodes), r(nodes)
		if !cyclic {
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
		}
		fmt.Fprintf(&sb, "up(n%d,n%d).\n", a, b)
	}
	for i := 0; i < nodes; i++ {
		if r(2) == 0 {
			fmt.Fprintf(&sb, "flat(n%d,m%d).\n", i, r(nodes))
		}
	}
	for i := 0; i < arcs; i++ {
		fmt.Fprintf(&sb, "down(m%d,m%d).\n", r(nodes), r(nodes))
	}
	return sb.String()
}

// rng returns a tiny deterministic generator (splitmix-style); the
// workloads must not depend on math/rand ordering across Go versions.
func rng(seed int) func(int) int {
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	return func(n int) int {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return int(z % uint64(n))
	}
}

// Programs used by the experiments, paired with the generators above.
const (
	// SGProgram is the same-generation program of Examples 1 and 5.
	SGProgram = `sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`
	// SGMultiRuleTemplate is extended by MultiRuleProgram.
	sgMultiRuleExit = "sg(X,Y) :- flat(X,Y).\n"
	// SGSharedVarProgram carries the shared attribute of Example 4.
	SGSharedVarProgram = `sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1,W), sg(X1,Y1), down(Y1,Y,W).
`
	// RightLinearProgram is §5's right-linear reachability program.
	RightLinearProgram = `p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
`
	// LeftLinearProgram is §5's left-linear program.
	LeftLinearProgram = `p(X,Y) :- flat(X,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).
`
	// MixedLinearProgram combines both (Example 6).
	MixedLinearProgram = `p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), p(X1,Y).
p(X,Y) :- p(X,Y1), down(Y1,Y).
`
)

// MultiRuleProgram builds the k-rule same-generation program of Example 3.
func MultiRuleProgram(k int) string {
	var sb strings.Builder
	sb.WriteString(sgMultiRuleExit)
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&sb, "sg(X,Y) :- up%d(X,X1), sg(X1,Y1), down%d(Y1,Y).\n", i, i)
	}
	return sb.String()
}

// Copies returns n disjoint copies of fact text: copy i prefixes every
// constant (the tokens that follow '(' or ',') with "c<i>_".
func Copies(facts string, n int) string {
	var sb strings.Builder
	sb.Grow(n * (len(facts) + len(facts)/4))
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("c%d_", i)
		for j := 0; j < len(facts); j++ {
			sb.WriteByte(facts[j])
			if facts[j] == '(' || facts[j] == ',' {
				sb.WriteString(prefix)
			}
		}
	}
	return sb.String()
}

// Shape is one program with a data set and a bound goal over it.
type Shape struct {
	Name, Program, Facts, Query string
}

// BenchShapes returns the four data shapes of the end-to-end benchmark
// (BENCHMARK.json, benchmark/workloads.go) with their breadth as a
// parameter: the cylinder's width and the number of disjoint copies of
// the cyclic and of the right-linear chain. Depth, chain length, period
// and answer count are the benchmark's own, and a goal reaches nothing
// outside its cone or its copy, so at any breadth a goal does exactly the
// work it does at full size (1024, 256, 40); only the data it never
// touches shrinks. sg-churn is the sg-acyclic cylinder in the state the
// churn stream leaves it in: eight fan-0 arcs of the middle level cut in
// the right half.
func BenchShapes(width, cyclicCopies, rlCopies int) []Shape {
	const depth = 19
	cylinder := Cylinder(depth, width, 2)
	churned := cylinder
	for i := 0; i < 8; i++ {
		col := width/2 + i
		arc := fmt.Sprintf("up(u_%d_%d,u_%d_%d).\n", depth/2, col, depth/2+1, col)
		churned = strings.Replace(churned, arc, "", 1)
	}
	sg := "?- sg(" + CylinderQuery + ",Y)."
	return []Shape{
		{"sg-acyclic", SGProgram, cylinder, sg},
		{"sg-cyclic", SGProgram, Copies(CyclicChain(60, 7), cyclicCopies), "?- sg(c0_u0,Y)."},
		{"sg-churn", SGProgram, churned, sg},
		{"rl-adhoc", RightLinearProgram, Copies(RightLinearChain(200, 100), rlCopies), "?- p(c0_u0,Y)."},
	}
}
