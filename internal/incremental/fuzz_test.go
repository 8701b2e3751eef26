package incremental

import (
	"context"
	"testing"
)

// FuzzApply decodes its input into one of chaosPrograms and a sequence of
// assert/retract batches over four nodes, and requires the maintained
// state to equal engine.EvalContext's fixpoint after every batch
// (Verify). The input's first byte picks the program; every following
// triple is one op: its first byte's low bit retracts, its second bit
// ends the batch, the rest picks the fact template; the other two bytes
// pick the nodes. The seed corpus (f.Add and testdata/fuzz/FuzzApply)
// runs under go test; `make fuzz` explores further.
func FuzzApply(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 1, 2, 3, 2, 3, 1, 0, 1})
	f.Add([]byte{1, 2, 0, 1, 6, 1, 2, 12, 2, 2, 16, 0, 0, 19, 2, 0, 3, 0, 1})
	f.Add([]byte{2, 0, 1, 0, 4, 0, 1, 10, 1, 1, 14, 0, 1, 1, 0, 1, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			domain = 4
			maxOps = 48
		)
		if len(data) == 0 {
			return
		}
		prog := chaosPrograms[int(data[0])%len(chaosPrograms)]
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
