package lincount_test

// Auto against every forced strategy on the four data shapes of the
// end-to-end benchmark (EXPERIMENTS.md § P20): the table that shows
// whether the planner's pick is the cheapest applicable strategy.

import (
	"testing"

	"lincount"
	"lincount/internal/workload"
)

// forcedFor lists the strategies that terminate on a benchmark shape: the
// list-based counting rewrites diverge on the cyclic chains.
func forcedFor(shape string) []lincount.Strategy {
	all := []lincount.Strategy{
		lincount.Counting, lincount.CountingReduced, lincount.CountingRuntime,
		lincount.Magic,
	}
	if shape == "sg-cyclic" {
		return all[2:]
	}
	return all
}

// BenchmarkAutoVsForced: the four benchmark shapes at full breadth ×
// (auto with a fresh plan.Shared per call — adornment, analysis and
// rewrite all paid; auto warm; every forced strategy warm).
// inferences/op is deterministic; `make benchcheck` runs it for allocs/op.
func BenchmarkAutoVsForced(b *testing.B) {
	for _, sh := range workload.BenchShapes(1024, 256, 40) {
		p, err := lincount.ParseProgram(sh.Program)
		if err != nil {
			b.Fatal(err)
		}
		db := lincount.NewDatabase(p)
		if err := db.LoadFacts(sh.Facts); err != nil {
			b.Fatal(err)
		}
		run := func(name string, s lincount.Strategy, opts ...lincount.Option) {
			b.Run(sh.Name+"/"+name, func(b *testing.B) {
				var res *lincount.Result
				if res, err = lincount.Eval(p, db, sh.Query, s, opts...); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res, err = lincount.Eval(p, db, sh.Query, s, opts...); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Stats.Inferences), "inferences/op")
			})
		}
		run("auto-cold", lincount.Auto, lincount.WithoutPlanCache())
		run("auto", lincount.Auto)
		for _, s := range forcedFor(sh.Name) {
			run(s.String(), s)
		}
	}
}
