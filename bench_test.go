package lincount_test

// One benchmark per experiment of EXPERIMENTS.md. The E-series benchmarks
// time the reproduction of the paper's worked examples (they also fail the
// benchmark run if a check regresses); the P-series benchmarks time the
// performance experiments at representative parameters. cmd/lincount-bench
// prints the corresponding result tables.

import (
	"fmt"
	"strings"
	"testing"

	"lincount"
	"lincount/internal/bench"
	"lincount/internal/workload"
)

func requireClean(b *testing.B, t bench.Table) {
	b.Helper()
	for _, r := range t.Rows {
		if r.Err != "" && r.Strategy != "counting-classic" {
			b.Fatalf("%s: %s/%s: %s", t.ID, r.Workload, r.Strategy, r.Err)
		}
	}
}

func BenchmarkE1_SameGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireClean(b, bench.E1SameGeneration())
	}
}

func BenchmarkE2_ArcClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireClean(b, bench.E2ArcClassification())
	}
}

func BenchmarkE3_MultiRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireClean(b, bench.E3MultiRule())
	}
}

func BenchmarkE4_SharedVars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireClean(b, bench.E4SharedVariables())
	}
}

func BenchmarkE5_Cyclic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireClean(b, bench.E5Cyclic())
	}
}

func BenchmarkE6_MixedLinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireClean(b, bench.E6MixedLinear())
	}
}

// benchStrategy times one (program, facts, query, strategy) cell with the
// program and database parsed once outside the loop.
func benchStrategy(b *testing.B, src, facts, query string, s lincount.Strategy) {
	b.Helper()
	p, err := lincount.ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(facts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lincount.Eval(p, db, query, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP1_MagicVsCounting: same generation on a cylinder; sub-benchmarks
// per strategy so `-bench P1` prints the comparison directly.
func BenchmarkP1_MagicVsCounting(b *testing.B) {
	const depth, width = 12, 8
	facts := workload.Cylinder(depth, width, 2)
	query := fmt.Sprintf("?- sg(%s,Y).", workload.CylinderQuery)
	for _, s := range []lincount.Strategy{lincount.Magic, lincount.CountingClassic, lincount.Counting, lincount.CountingRuntime} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, workload.SGProgram, facts, query, s)
		})
	}
}

// BenchmarkP2_CountingSetSize: shortcut chains (the n² counting-set shape).
func BenchmarkP2_CountingSetSize(b *testing.B) {
	for _, n := range []int{32, 64} {
		facts := workload.ShortcutChain(n)
		for _, s := range []lincount.Strategy{lincount.Counting, lincount.CountingRuntime} {
			b.Run(fmt.Sprintf("n=%d/%s", n, s), func(b *testing.B) {
				benchStrategy(b, workload.SGProgram, facts, "?- sg(v0,Y).", s)
			})
		}
	}
}

// BenchmarkP3_CyclicData: cyclic chains, runtime vs magic.
func BenchmarkP3_CyclicData(b *testing.B) {
	facts := workload.CyclicChain(64, 8)
	for _, s := range []lincount.Strategy{lincount.CountingRuntime, lincount.Magic} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, workload.SGProgram, facts, "?- sg(u0,Y).", s)
		})
	}
}

// BenchmarkP4_Reduction: right-linear chain, reduced counting vs magic.
func BenchmarkP4_Reduction(b *testing.B) {
	facts := workload.RightLinearChain(256, 8)
	for _, s := range []lincount.Strategy{lincount.Magic, lincount.Counting, lincount.CountingReduced} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, workload.RightLinearProgram, facts, "?- p(u0,Y).", s)
		})
	}
}

// BenchmarkP5_MultiRuleScaling: k recursive rules.
func BenchmarkP5_MultiRuleScaling(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		src := workload.MultiRuleProgram(k)
		facts := workload.MultiRule(64, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchStrategy(b, src, facts, "?- sg(u0,Y).", lincount.Counting)
		})
	}
}

// BenchmarkP6_PointerAblation: hash-consed vs structural path lists.
func BenchmarkP6_PointerAblation(b *testing.B) {
	b.Run("hash-consed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bench.P6PointerAblation([]int{4000})
		}
	})
}

// BenchmarkP7_PhaseWork: deep chain, counting vs magic per-level work.
func BenchmarkP7_PhaseWork(b *testing.B) {
	facts := workload.Chain(512)
	for _, s := range []lincount.Strategy{lincount.Magic, lincount.MagicSup, lincount.CountingClassic, lincount.Counting} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, workload.SGProgram, facts, "?- sg(u0,Y).", s)
		})
	}
}

// BenchmarkP8_TreeData: B&R tree data, the break-even regime.
func BenchmarkP8_TreeData(b *testing.B) {
	const depth = 8
	facts := workload.Tree(2, depth)
	query := fmt.Sprintf("?- sg(%s,Y).", workload.TreeQuery(depth))
	for _, s := range []lincount.Strategy{lincount.Magic, lincount.Counting, lincount.CountingRuntime} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, workload.SGProgram, facts, query, s)
		})
	}
}

// BenchmarkP9_Grid: the no-wraparound cylinder variant.
func BenchmarkP9_Grid(b *testing.B) {
	facts := workload.Grid(12, 8)
	query := fmt.Sprintf("?- sg(%s,Y).", workload.GridQuery)
	for _, s := range []lincount.Strategy{lincount.Magic, lincount.Counting} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, workload.SGProgram, facts, query, s)
		})
	}
}

// BenchmarkP12_QSQ: the top-down baseline against the rewritings.
func BenchmarkP12_QSQ(b *testing.B) {
	facts := workload.Chain(48)
	for _, s := range []lincount.Strategy{lincount.QSQ, lincount.Magic, lincount.Counting} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, workload.SGProgram, facts, "?- sg(u0,Y).", s)
		})
	}
}

// BenchmarkP10_Selectivity: one relevant chain among many irrelevant ones.
func BenchmarkP10_Selectivity(b *testing.B) {
	facts := workload.Branchy(32, 32)
	for _, s := range []lincount.Strategy{lincount.SemiNaive, lincount.Magic, lincount.Counting} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, workload.SGProgram, facts, "?- sg(u0,Y).", s)
		})
	}
}

// BenchmarkP14_PreparedVsCold: compilation amortization through the plan
// cache. "cold" evaluates with the cache bypassed (every iteration pays
// query parsing, adornment, analysis and rewriting); "prepared"
// evaluates a PreparedQuery whose plan is compiled once and hit
// thereafter. The workload shapes are P1's cylinder and P2's shortcut
// chain at small sizes, where compilation and execution cost are
// comparable — the regime the cache exists for (a service answering
// many point queries); on large instances execution dominates both
// sides and the gap narrows toward zero.
func BenchmarkP14_PreparedVsCold(b *testing.B) {
	workloads := []struct {
		name, src, facts, query string
	}{
		{"P1cylinder", workload.SGProgram,
			workload.Cylinder(3, 2, 2),
			fmt.Sprintf("?- sg(%s,Y).", workload.CylinderQuery)},
		{"P2shortcut", workload.SGProgram,
			workload.ShortcutChain(4), "?- sg(v0,Y)."},
	}
	for _, w := range workloads {
		p, err := lincount.ParseProgram(w.src)
		if err != nil {
			b.Fatal(err)
		}
		db := lincount.NewDatabase(p)
		if err := db.LoadFacts(w.facts); err != nil {
			b.Fatal(err)
		}
		b.Run(w.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lincount.Eval(p, db, w.query, lincount.Auto, lincount.WithoutPlanCache()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/prepared", func(b *testing.B) {
			pq, err := lincount.Prepare(p, w.query, lincount.Auto)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pq.Eval(db); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pq.Eval(db)
				if err != nil {
					b.Fatal(err)
				}
				if !res.PlanCacheHit {
					b.Fatal("prepared evaluation missed the plan cache")
				}
			}
		})
	}
}

// BenchmarkP17_BatchedJoin: the join pipeline on a probe-bound 4-literal
// recursive rule (the P17 wide shape at reduced size). Run under `make benchcheck`: allocs/op is
// the guarded number — the pipeline amortises its buffers across
// iterations, so a drift upward means a buffer stopped being reused.
func BenchmarkP17_BatchedJoin(b *testing.B) {
	const src = "p(X,Y) :- s(X,Y).\np(X,W) :- p(X,Y), a(Y,Z), a2(Z,U), b(U,W).\n"
	var facts strings.Builder
	const steps, fanout = 32, 4
	for i := 0; i < steps; i++ {
		for j := 0; j < fanout; j++ {
			fmt.Fprintf(&facts, "a(y%d,m%d_%d).\n", i, i, j)
			for l := 0; l < fanout; l++ {
				fmt.Fprintf(&facts, "a2(m%d_%d,u%d_%d_%d).\n", i, j, i, j, l)
			}
		}
		fmt.Fprintf(&facts, "b(u%d_0_0,y%d).\n", i, i+1)
	}
	for k := 0; k < 64; k++ {
		fmt.Fprintf(&facts, "s(x%d,y0).\n", k)
	}
	p, err := lincount.ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(facts.String()); err != nil {
		b.Fatal(err)
	}
	pq, err := lincount.Prepare(p, "?- p(x0,W).", lincount.SemiNaive)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pq.Eval(db); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}
