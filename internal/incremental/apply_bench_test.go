package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lincount/internal/workload"
)

// BenchmarkApplySwap is the layer bench for a maintenance write: the
// end-to-end benchmark's sg-acyclic write, a swap of scratch arcs (a
// fresh source's arc into level 1 asserted, the arc asserted eight swaps
// earlier retracted), on a Cylinder(19, 1024, 2) materialisation. One op
// is one Apply of one swap. A retract leaves its dead rows in sg until
// they outgrow its append room, so a run of a few hundred swaps includes
// compactions; compactions/op counts them. Run by `make benchcheck`.
func BenchmarkApplySwap(b *testing.B) {
	const pool, window = 512, 8
	rng := rand.New(rand.NewSource(1))
	arcs := make([]string, pool)
	for i := range arcs {
		arcs[i] = fmt.Sprintf("up(w%d,u_1_%d).", i, rng.Intn(1024))
	}
	f := newFixture(b, workload.SGProgram, workload.Cylinder(19, 1024, 2)+strings.Join(arcs[:window], "\n"))
	ctx := context.Background()
	m, err := New(ctx, f.prog, f.db, Options{})
	if err != nil {
		b.Fatal(err)
	}
	sg := f.sym("sg")
	compactions := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := []Op{{Text: arcs[(i+window)%pool]}, {Retract: true, Text: arcs[i%pool]}}
		next, _, err := m.Apply(ctx, m.Database().Fork(), ops)
		if err != nil {
			b.Fatal(err)
		}
		if next.derived[sg].Len() < m.derived[sg].Len() {
			compactions++
		}
		m = next
	}
	b.ReportMetric(float64(compactions)/float64(b.N), "compactions/op")
}
