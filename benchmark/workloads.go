package main

import (
	"fmt"
	"math/rand"
	"strings"

	"lincount"
	"lincount/internal/workload"
)

// window is the number of pool facts a write stream keeps in flight: op k
// touches pool[k] and pool[k+window], so two ops on the same fact are
// window writes apart — more than the client count, which keeps
// concurrently acked writes commutative and the op log replayable in
// index order.
const window = 8

// spec is one workload: the program, the data shape, the traffic mix and
// the values frozen at calibration. Every size is part of the benchmark's
// definition; changing one starts a new baseline.
type spec struct {
	name string
	why  string
	// counting is the strategy behind eval_counting_ms: the rewrite
	// (Algorithm 1) where the data is acyclic, the pointer runtime
	// (Algorithm 2) where it is not.
	counting lincount.Strategy
	// readsPer10 is the number of reads in every block of ten requests.
	readsPer10 int
	// rate is the open-loop request rate in 1/s: round(0.35 × sat_rps) as
	// calibrated on the reference host, then frozen.
	rate int
	full dims
	// small is the ~1/50 data set the unit test runs.
	small dims
	build func(d dims, rng *rand.Rand) *inputs
}

// dims sizes a data set; each generator documents its own reading of a, b, c.
type dims struct {
	a, b, c int
	queries int
	pool    int // entries in the write pool and in the recovery-tail pool
}

// swap is one write request: one fact in, one fact out, so the database
// size is stationary and every write costs the same kind of work (a lone
// assert is ~3× cheaper than a lone retract here, which would put the
// median on the boundary between two modes).
type swap struct{ assert, retract string }

// inputs is everything a run feeds the program under test, as text.
type inputs struct {
	program string
	facts   string
	// queries are the Q bound goals of the read mix; their answers do not
	// depend on any write the benchmark issues.
	queries []string
	writes  stream // the mix's writes
	tail    stream // the recovery phases' writes
}

// stream is a cyclic sequence of swap writes over a pool of facts, with one
// goal per pool fact whose answers that fact changes.
type stream struct {
	ops   []swap
	goals []string
}

// goalsAt returns, after n ops of the stream, the goals of the two pool
// facts toggled back last and of the two toggled longest: the written
// region on both sides of the stream's position.
func (s *stream) goalsAt(n int) []string {
	p := len(s.ops)
	out := make([]string, 0, 4)
	for _, i := range []int{n - 2, n - 1, n, n + 1} {
		out = append(out, s.goals[((i%p)+p)%p])
	}
	return out
}

var specs = []spec{
	{
		name:       "sg-acyclic",
		why:        "same-generation on an acyclic cylinder (paper §1): counting rewrite + engine pipeline vs magic; 90/10 read/write; counting=counting; open loop 115/s",
		counting:   lincount.Counting,
		readsPer10: 9,
		rate:       115,
		full:       dims{a: 19, b: 1024, c: 2, queries: 40, pool: 512},
		small:      dims{a: 5, b: 64, c: 2, queries: 16, pool: 32},
		build:      buildCylinder(false),
	},
	{
		name:       "sg-cyclic",
		why:        "same-generation on 256 cyclic chains (paper §4): the rewrite is unsafe, the pointer runtime does the work; 90/10; counting=counting-runtime; open loop 170/s",
		counting:   lincount.CountingRuntime,
		readsPer10: 9,
		rate:       170,
		full:       dims{a: 256, b: 60, c: 7, queries: 40, pool: 512},
		small:      dims{a: 16, b: 20, c: 7, queries: 16, pool: 32},
		build:      buildCyclic,
	},
	{
		name:       "sg-churn",
		why:        "the sg-acyclic data, 50/50, every write retracts one original arc and re-asserts another: DRed, fork/rebuild, WAL fsync and the writer dominate; counting=counting; open loop 28/s",
		counting:   lincount.Counting,
		readsPer10: 5,
		rate:       28,
		full:       dims{a: 19, b: 1024, c: 2, queries: 40, pool: 480},
		small:      dims{a: 5, b: 64, c: 2, queries: 16, pool: 24},
		build:      buildCylinder(true),
	},
	{
		name:       "rl-adhoc",
		why:        "right-linear closure (paper §5), 512 distinct goals > the 128-plan LRU so every library eval compiles cold; 100-row answers; 90/10; counting=counting; open loop 60/s",
		counting:   lincount.Counting,
		readsPer10: 9,
		rate:       60,
		full:       dims{a: 40, b: 200, c: 100, queries: 512, pool: 512},
		small:      dims{a: 4, b: 40, c: 25, queries: 40, pool: 32},
		build:      buildRightLinear,
	},
}

func specByName(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// generate derives a workload's inputs from the seed alone.
func (s *spec) generate(seed int64, small bool) *inputs {
	d := s.full
	if small {
		d = s.small
	}
	return s.build(d, rand.New(rand.NewSource(seed)))
}

// prefixConstants renames every constant of fact text by prefixing it,
// which turns one generated instance into a disjoint copy. Constants are
// exactly the tokens that follow '(' or ','.
func prefixConstants(facts, prefix string) string {
	var sb strings.Builder
	sb.Grow(len(facts) + len(facts)/4)
	for i := 0; i < len(facts); i++ {
		sb.WriteByte(facts[i])
		if facts[i] == '(' || facts[i] == ',' {
			sb.WriteString(prefix)
		}
	}
	return sb.String()
}

func copies(base string, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(prefixConstants(base, fmt.Sprintf("c%d_", i)))
	}
	return sb.String()
}

// newStream turns a pool of facts into a stream. With present=false the
// pool starts absent except for its first window facts: op k asserts
// pool[k+window] and retracts pool[k]. With present=true the pool is part
// of the original data and starts present except for its first window
// facts: op k retracts pool[k+window] and re-asserts pool[k]. first are the
// facts that differ from the pool's default state at the start, which the
// caller adds to or cuts from the initial fact text.
func newStream(pool, goals []string, present bool) (s stream, first []string) {
	n := len(pool)
	s = stream{ops: make([]swap, n), goals: goals}
	for k := range s.ops {
		in, out := pool[(k+window)%n], pool[k]
		if present {
			in, out = out, in
		}
		s.ops[k] = swap{assert: in, retract: out}
	}
	return s, pool[:window]
}

// addScratch appends a stream of n arcs from fresh source nodes <name>0..
// into seeded targets, and their first window to the facts. A fresh source
// derives new tuples for itself only, so no answer of an original constant
// changes; its goal reads exactly those tuples.
func (in *inputs) addScratch(pred, name string, n int, target func() string) stream {
	pool, goals := make([]string, n), make([]string, n)
	for i := range pool {
		pool[i] = fmt.Sprintf("up(%s%d,%s).", name, i, target())
		goals[i] = fmt.Sprintf("?- %s(%s%d,Y).", pred, name, i)
	}
	s, first := newStream(pool, goals, false)
	in.facts += strings.Join(first, "\n") + "\n"
	return s
}

// buildCylinder generates Cylinder(depth a, width b, fan c). Reads bind
// level-0 nodes of the left half; every one of them has the same answer
// count and cost, so the seed picks which, not how expensive. With
// churn=false writes add scratch sources above level 1. With churn=true
// writes retract and re-assert fan-0 arcs of the middle level in the
// right half: each source keeps its fan-1 arc, so every overdeleted tuple
// has a surviving derivation, and no left-half goal reaches a churned arc
// (a level-0 node j reaches columns j..j+l at level l).
func buildCylinder(churn bool) func(d dims, rng *rand.Rand) *inputs {
	return func(d dims, rng *rand.Rand) *inputs {
		depth, width := d.a, d.b
		mid := depth / 2
		in := &inputs{program: workload.SGProgram, facts: workload.Cylinder(depth, width, d.c)}
		for _, j := range rng.Perm(width/2 - mid)[:d.queries] {
			in.queries = append(in.queries, fmt.Sprintf("?- sg(u_0_%d,Y).", j))
		}
		level1 := func() string { return fmt.Sprintf("u_1_%d", rng.Intn(width)) }
		if churn {
			pool, goals := make([]string, d.pool), make([]string, d.pool)
			for i, j := range rng.Perm(width/2 - mid)[:d.pool] {
				col := width/2 + j
				pool[i] = fmt.Sprintf("up(u_%d_%d,u_%d_%d).", mid, col, mid+1, col)
				goals[i] = fmt.Sprintf("?- sg(u_0_%d,Y).", col-rng.Intn(mid+1))
			}
			var cut []string
			in.writes, cut = newStream(pool, goals, true)
			for _, f := range cut {
				in.facts = strings.Replace(in.facts, f+"\n", "", 1)
			}
		} else {
			in.writes = in.addScratch("sg", "w", d.pool, level1)
		}
		in.tail = in.addScratch("sg", "t", d.pool, level1)
		return in
	}
}

// buildCyclic generates a disjoint copies of CyclicChain(b, period c).
// Reads bind the chain start of seeded copies; writes add scratch sources
// into seeded copies.
func buildCyclic(d dims, rng *rand.Rand) *inputs {
	in := &inputs{program: workload.SGProgram, facts: copies(workload.CyclicChain(d.b, d.c), d.a)}
	for _, i := range rng.Perm(d.a)[:d.queries] {
		in.queries = append(in.queries, fmt.Sprintf("?- sg(c%d_u0,Y).", i))
	}
	target := func() string { return fmt.Sprintf("c%d_u1", rng.Intn(d.a)) }
	in.writes = in.addScratch("sg", "w", d.pool, target)
	in.tail = in.addScratch("sg", "t", d.pool, target)
	return in
}

// buildRightLinear generates a disjoint copies of RightLinearChain(b, c).
// Goals bind the first queries/a positions of every copy, so evaluation
// cost varies by at most that share of the chain length and every answer
// has c rows.
func buildRightLinear(d dims, rng *rand.Rand) *inputs {
	in := &inputs{program: workload.RightLinearProgram, facts: copies(workload.RightLinearChain(d.b, d.c), d.a)}
	positions := (d.queries + d.a - 1) / d.a
	for _, k := range rng.Perm(d.a * positions)[:d.queries] {
		in.queries = append(in.queries, fmt.Sprintf("?- p(c%d_u%d,Y).", k%d.a, k/d.a))
	}
	target := func() string { return fmt.Sprintf("c%d_u0", rng.Intn(d.a)) }
	in.writes = in.addScratch("p", "w", d.pool, target)
	in.tail = in.addScratch("p", "t", d.pool, target)
	return in
}
