package incremental

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"lincount/internal/limits"
	"lincount/internal/workload"
)

// Derived rows a retraction kills stay in their relation as dead rows,
// carried from epoch to epoch, until they outgrow the relation's append
// room; these tests hold that state to the from-scratch fixpoint and to
// the immutability of published epochs.

// toggler writes random batches over a pool of facts: each op retracts a
// present fact or asserts an absent one, so a fact retracted in one batch
// comes back in a later one and revives the dead rows it supported.
type toggler struct {
	rng     *rand.Rand
	pool    []string
	present map[string]bool
}

func (tg *toggler) batch() []Op {
	var ops []Op
	for k := tg.rng.Intn(3) + 1; k > 0; k-- {
		f := tg.pool[tg.rng.Intn(len(tg.pool))]
		ops = append(ops, Op{Retract: tg.present[f], Text: f})
		tg.present[f] = !tg.present[f]
	}
	return ops
}

// lines splits fact text into one fact per entry.
func lines(facts string) []string { return strings.Fields(facts) }

// eChain is the arcs e(n0,n1) … e(n{k-1},nk).
func eChain(k int) []string {
	arcs := make([]string, k)
	for i := range arcs {
		arcs[i] = fmt.Sprintf("e(n%d,n%d).", i, i+1)
	}
	return arcs
}

func TestCarriedDeadRowsProperty(t *testing.T) {
	scratch := make([]string, 32)
	for i := range scratch {
		scratch[i] = fmt.Sprintf("up(w%d,u_1_%d).", i, (7*i)%32)
	}
	cases := []struct {
		name, rules, facts string
		pool               []string
		pred               string
	}{
		{"same-generation", workload.SGProgram, workload.Cylinder(6, 32, 2),
			append(scratch, lines(workload.Cylinder(6, 32, 2))[:6*32*2]...), "sg"},
		{"right-linear", workload.RightLinearProgram, workload.RightLinearChain(40, 8),
			[]string{"up(u5,u6).", "up(u15,u16).", "up(u25,u26).", "up(u35,u36).",
				"flat(u40,ans0).", "flat(u40,ans1).", "flat(u40,ans2).", "flat(u40,ans3)."}, "p"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const batches = 150
			f := newFixture(t, c.rules, c.facts)
			m, err := New(context.Background(), f.prog, f.db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tg := &toggler{rng: rand.New(rand.NewSource(7)), pool: c.pool, present: make(map[string]bool)}
			for _, fact := range lines(c.facts) {
				tg.present[fact] = true
			}
			pred := f.sym(c.pred)
			var compactions, carried, revivals int
			for b := 0; b < batches; b++ {
				ops := tg.batch()
				next, _ := apply(t, m, ops)
				if err := next.Verify(context.Background()); err != nil {
					t.Fatalf("batch %d %v: %v", b, ops, err)
				}
				before, after := m.derived[pred].Len(), next.derived[pred].Len()
				switch {
				case after < before:
					compactions++
				case next.dead[pred].count() < m.dead[pred].count():
					revivals++
				}
				if next.dead[pred].count() > 0 {
					carried++
				}
				m = next
			}
			// The run must have exercised what it checks: several
			// compactions, epochs carrying dead rows, revived dead rows.
			if compactions < 3 || carried < batches/4 || revivals == 0 {
				t.Fatalf("%d batches: %d compactions, %d epochs carried dead rows, %d revived some; want ≥ 3, ≥ %d, ≥ 1",
					batches, compactions, carried, revivals, batches/4)
			}
		})
	}
}

// TestCarriedDeadRowsSnapshotIsolation: readers hold an epoch whose
// relation carries dead rows while the writer applies a batch that
// revives them — on the very relation the epoch holds, since no row is
// appended — and one that kills others. The held epoch's answers and its
// fixpoint stay what they were. Run under -race by `make check`.
func TestCarriedDeadRowsSnapshotIsolation(t *testing.T) {
	arc := eChain(10)
	f := newFixture(t, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).", strings.Join(arc, "\n"))
	m0, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := apply(t, m0, []Op{{Retract: true, Text: arc[4]}})
	tc := f.sym("tc")
	if e.dead[tc].count() == 0 {
		t.Fatal("the retraction left no carried dead rows")
	}
	q := f.query(t, "?- tc(X,Y).")
	want := e.Answers(q)

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if got := e.Answers(q); !sameTuples(got, want) {
					errs <- fmt.Errorf("held epoch answers changed: %v, want %v", got, want)
					return
				}
			}
		}()
	}
	m1, _ := apply(t, e, []Op{{Text: arc[4]}})
	if m1.derived[tc] != e.derived[tc] {
		t.Fatal("reviving dead rows cloned the relation: the test no longer shares it with the held epoch")
	}
	m2, _ := apply(t, m1, []Op{{Retract: true, Text: arc[2]}})
	close(stop)
	wg.Wait()
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*Materialization{e, m1, m2} {
		if err := m.Verify(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Answers(q); !sameTuples(got, want) {
		t.Fatalf("held epoch answers changed: %v, want %v", got, want)
	}
}

// faultCtx reads as canceled from the n-th poll of its Done channel on:
// a fault injected at the n-th cancellation check of one Apply.
type faultCtx struct {
	context.Context
	n, polls     int
	open, closed chan struct{}
}

func newFaultCtx(n int) *faultCtx {
	c := &faultCtx{Context: context.Background(), n: n, open: make(chan struct{}), closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *faultCtx) Done() <-chan struct{} {
	if c.polls++; c.polls >= c.n {
		return c.closed
	}
	return c.open
}

func (c *faultCtx) Err() error {
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestApplyRetryAfterInjectedFault fails one batch at every cancellation
// check it passes — in the deletion phase, and in the insertion phase
// after the base retractions were written to the fork — and retries it
// from the same parent each time: the retry gives the model a clean
// Apply gives, and the parent, whose relation carries dead rows the batch
// revives and adds to, is untouched.
func TestApplyRetryAfterInjectedFault(t *testing.T) {
	arc := eChain(12)
	f := newFixture(t, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).", strings.Join(arc, "\n"))
	m0, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parent, _ := apply(t, m0, []Op{{Retract: true, Text: arc[8]}})
	ops := []Op{{Text: arc[8]}, {Retract: true, Text: arc[3]}, {Text: "e(n12,n13)."}}
	q := f.query(t, "?- tc(X,Y).")
	parentWant := parent.Answers(q)
	clean, _ := apply(t, parent, ops)
	want := clean.Answers(q)

	e := f.sym("e")
	failures, wroteFork := 0, false
	for n := 1; ; n++ {
		if n > 10000 {
			t.Fatal("the batch never completed under the injected fault")
		}
		fork := parent.Database().Fork()
		_, _, err := parent.Apply(newFaultCtx(n), fork, ops)
		if err == nil {
			break
		}
		var ce *limits.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("fault at check %d: %v, want a cancellation", n, err)
		}
		failures++
		wroteFork = wroteFork || fork.Relation(e) != parent.Database().Relation(e)
		retry, _ := apply(t, parent, ops)
		if got := retry.Answers(q); !sameTuples(got, want) || retry.DerivedFacts() != clean.DerivedFacts() {
			t.Fatalf("retry after a fault at check %d: %d facts %v, want %d facts %v",
				n, retry.DerivedFacts(), got, clean.DerivedFacts(), want)
		}
		if err := retry.Verify(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if failures < 2 || !wroteFork {
		t.Fatalf("%d injected faults, fork written before one: %v; want ≥ 2 and true", failures, wroteFork)
	}
	if got := parent.Answers(q); !sameTuples(got, parentWant) {
		t.Fatalf("parent answers changed: %v, want %v", got, parentWant)
	}
	if err := parent.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
}
