package counting

import (
	"testing"

	"lincount/internal/adorn"
	"lincount/internal/database"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
	"lincount/internal/workload"
)

// BenchmarkRuntimeMoves is the pointer runtime alone on the sg-cyclic
// benchmark shape (one goal of 256 cyclic chains): both phases, no facade.
// The layer behind counting.runtime_run_ms; `make benchcheck` runs it for
// allocs/op.
func BenchmarkRuntimeMoves(b *testing.B) {
	sh := workload.BenchShapes(64, 256, 1)[1]
	bank := term.NewBank(symtab.New())
	res, err := parser.Parse(bank, sh.Program)
	if err != nil {
		b.Fatal(err)
	}
	q, err := parser.ParseQuery(bank, sh.Query)
	if err != nil {
		b.Fatal(err)
	}
	db := database.New(bank)
	if err := db.LoadText(sh.Facts); err != nil {
		b.Fatal(err)
	}
	a, err := adorn.Adorn(res.Program, q)
	if err != nil {
		b.Fatal(err)
	}
	an, err := Analyze(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rr *RunResult
	for i := 0; i < b.N; i++ {
		if rr, err = Run(an, db, RuntimeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rr.Stats.Moves), "moves/op")
}
