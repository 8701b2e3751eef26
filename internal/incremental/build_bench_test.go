package incremental

import (
	"context"
	"testing"

	"lincount/internal/workload"
)

// BenchmarkMaterializeBuild is the layer bench for the build (New, the
// engine's fixpoint): same-generation over a cylinder. Run by
// `make benchcheck`; EXPERIMENTS.md P19 records the accepted numbers.
func BenchmarkMaterializeBuild(b *testing.B) {
	f := newFixture(b, `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`, workload.Cylinder(9, 256, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(context.Background(), f.prog, f.db, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if m.DerivedFacts() == 0 {
			b.Fatal("nothing derived")
		}
	}
}
