package incremental

import (
	"context"
	"testing"
)

// FuzzApply decodes its input into one of chaosPrograms and a sequence of
// assert/retract batches over four (or 32) nodes, and requires the maintained
// state to equal engine.EvalContext's fixpoint after every batch
// (Verify). The input's first byte picks the program, and its high bit
// widens the nodes to 32, room for relations whose dead rows outgrow
// their append room; every following triple is one op: its first byte's
// low bit retracts, its second bit ends the batch, the rest picks the
// fact template; the other two bytes pick the nodes. The seed corpus
// (f.Add and testdata/fuzz/FuzzApply) runs under go test; `make fuzz`
// explores further.
func FuzzApply(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 1, 2, 3, 2, 3, 1, 0, 1})
	f.Add([]byte{1, 2, 0, 1, 6, 1, 2, 12, 2, 2, 16, 0, 0, 19, 2, 0, 3, 0, 1})
	f.Add([]byte{2, 0, 1, 0, 4, 0, 1, 10, 1, 1, 14, 0, 1, 1, 0, 1, 3, 1, 1})
	// On 32 nodes, closure over the chain n0 … n18: retracting its last
	// arc leaves 18 tc rows dead and carried, asserting it back revives
	// them, and retracting a middle arc kills 90 of 171 rows, past the
	// append room, which compacts tc.
	chain := []byte{0x80}
	for i := byte(0); i < 18; i++ {
		chain = append(chain, 0, i, i+1)
	}
	chain[len(chain)-3] = 2
	chain = append(chain, 3, 17, 18, 2, 17, 18, 3, 8, 9)
	f.Add(chain)
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 48
		if len(data) == 0 {
			return
		}
		domain := 4
		if data[0]&0x80 != 0 {
			domain = 32
		}
		prog := chaosPrograms[int(data[0]&0x7f)%len(chaosPrograms)]
		fx := newFixture(t, prog.rules, "")
		m, err := New(context.Background(), fx.prog, fx.db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ops []Op
		flush := func() {
			if len(ops) == 0 {
				return
			}
			m2, _, err := m.Apply(context.Background(), m.Database().Fork(), ops)
			if err != nil {
				t.Fatalf("apply %v: %v", ops, err)
			}
			if err := m2.Verify(context.Background()); err != nil {
				t.Fatalf("after %v: %v", ops, err)
			}
			m, ops = m2, nil
		}
		data = data[1:]
		for n := 0; len(data) >= 3 && n < maxOps; n, data = n+1, data[3:] {
			op, args := data[0], data[1:3]
			ops = append(ops, Op{
				Retract: op&1 != 0,
				Text:    fact(prog.facts[int(op>>2)%len(prog.facts)], func() int { v := args[0]; args = args[1:]; return int(v) % domain }),
			})
			if op&2 != 0 {
				flush()
			}
		}
		flush()
	})
}
