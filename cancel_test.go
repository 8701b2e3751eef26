package lincount

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Divergent workloads, one flavor per strategy family. The succ-counter
// program is unsafe on any database (each round manufactures a new
// number); the cyclic sg data defeats the counting rewritings, whose
// level arguments grow forever around the up-cycle; the unbounded
// right-recursion diverges the pointer runtime's counting phase.
const (
	succCounterSrc = `
num(0).
num(N) :- num(M), M < 100000000000, succ(M,N).
`
	cyclicSGSrc = `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`
	cyclicSGFacts = "up(a,b). up(b,c). up(c,a). flat(b,f). down(f,g). down(g,h)."

	rightRecSrc = `
n(X) :- stop(X).
n(X) :- succ(X,X1), n(X1).
`
	rightRecFacts = "stop(99999999999)."
)

// divergentCase is one strategy paired with a workload on which it runs
// forever absent a deadline.
type divergentCase struct {
	name  string
	src   string
	facts string
	query string
	s     Strategy
	opts  []Option
}

func divergentCases() []divergentCase {
	return []divergentCase{
		{"naive", succCounterSrc, "", "?- num(X).", Naive, nil},
		{"semi-naive", succCounterSrc, "", "?- num(X).", SemiNaive, nil},
		{"magic", succCounterSrc, "", "?- num(5).", Magic, nil},
		{"magic-sup", succCounterSrc, "", "?- num(5).", MagicSup, nil},
		{"qsq", succCounterSrc, "", "?- num(5).", QSQ, nil},
		{"counting-classic", cyclicSGSrc, cyclicSGFacts, "?- sg(a,Y).", CountingClassic, nil},
		{"counting", cyclicSGSrc, cyclicSGFacts, "?- sg(a,Y).", Counting, nil},
		{"counting-reduced", cyclicSGSrc, cyclicSGFacts, "?- sg(a,Y).", CountingReduced, nil},
		{"counting-runtime", rightRecSrc, rightRecFacts, "?- n(0).", CountingRuntime, nil},
	}
}

func (c divergentCase) load(t *testing.T) (*Program, *Database) {
	t.Helper()
	p, err := ParseProgram(c.src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := NewDatabase(p)
	if c.facts != "" {
		if err := db.LoadFacts(c.facts); err != nil {
			t.Fatalf("facts: %v", err)
		}
	}
	return p, db
}

// TestEvalContextPreCancelled: a context cancelled before the call returns
// promptly with an error matching context.Canceled, for every strategy.
func TestEvalContextPreCancelled(t *testing.T) {
	for _, c := range divergentCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, db := c.load(t)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			_, err := EvalContext(ctx, p, db, c.query, c.s, c.opts...)
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("pre-cancelled eval took %v", elapsed)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CanceledError", err)
			}
		})
	}
}

// TestEvalDeadlineInterruptsDivergence: the acceptance criterion — a
// divergent query with a 50ms deadline returns a DeadlineExceeded-wrapping
// error well under a second, for every strategy.
func TestEvalDeadlineInterruptsDivergence(t *testing.T) {
	for _, c := range divergentCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, db := c.load(t)
			start := time.Now()
			_, err := Eval(p, db, c.query, c.s,
				append(c.opts, WithMaxDuration(50*time.Millisecond))...)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("divergent query returned without error")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			// "Well under a second": the cooperative checks poll every
			// iteration and every 1024 inferences, so overshoot past the
			// 50ms deadline is bounded by one check interval.
			if elapsed > time.Second {
				t.Fatalf("deadline overshoot: took %v for a 50ms deadline", elapsed)
			}
		})
	}
}

// TestEvalContextMidFlightCancel: cancelling from another goroutine while
// the fixpoint runs stops it promptly.
func TestEvalContextMidFlightCancel(t *testing.T) {
	p, err := ParseProgram(succCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(p)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = EvalContext(ctx, p, db, "?- num(X).", SemiNaive)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel took effect after %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFactBudgetCountsSeeds: the derived-fact cap is charged for every
// fact the evaluation holds, seeds included (program facts and database
// rows of head predicates); the trip reports Used = cap + 1, and the
// WithFactProgress mirror reads the same count.
func TestFactBudgetCountsSeeds(t *testing.T) {
	// 3 program facts and 10 database rows seed a; the rules then derive
	// 20 more a facts and 33 b facts: 66 in all, 53 without the seeds. A
	// cap of 60 trips only if the seeds are counted.
	src := `
a(p1). a(p2). a(p3).
a(X) :- base(X).
b(X) :- a(X).
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(p)
	for i := 0; i < 20; i++ {
		if err := db.Assert("base", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 110; i++ {
		if err := db.Assert("a", i); err != nil {
			t.Fatal(err)
		}
	}
	const limit = 60
	var progress atomic.Int64
	_, err = Eval(p, db, "?- b(X).", SemiNaive,
		WithMaxDerivedFacts(limit), WithFactProgress(&progress))
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("err = %v, want ErrResourceLimit", err)
	}
	var rle *ResourceLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want *ResourceLimitError", err)
	}
	if rle.Kind != LimitFacts || rle.Component != "engine" {
		t.Errorf("Kind/Component = %q/%q, want %q/engine", rle.Kind, rle.Component, LimitFacts)
	}
	if rle.Limit != limit || rle.Used != limit+1 {
		t.Errorf("Limit/Used = %d/%d, want %d/%d", rle.Limit, rle.Used, limit, limit+1)
	}
	if got := progress.Load(); got != rle.Used {
		t.Errorf("WithFactProgress mirror = %d, want Used = %d", got, rle.Used)
	}
}

// TestResourceLimitErrorStructure: the legacy budget errors now carry
// structured details and still match the old sentinels.
func TestResourceLimitErrorStructure(t *testing.T) {
	p, err := ParseProgram(succCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Eval(p, NewDatabase(p), "?- num(X).", SemiNaive, WithMaxIterations(5))
	var rle *ResourceLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want *ResourceLimitError", err)
	}
	if rle.Kind != LimitIterations || rle.Limit != 5 {
		t.Errorf("got Kind=%q Limit=%d, want %q/5", rle.Kind, rle.Limit, LimitIterations)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("budget error must not impersonate a cancellation: %v", err)
	}

	// QSQ's pass budget trips the same structured error (LimitPasses).
	_, err = Eval(p, NewDatabase(p), "?- num(5).", QSQ, WithMaxIterations(3))
	if !errors.As(err, &rle) {
		t.Fatalf("qsq err = %v, want *ResourceLimitError", err)
	}
	if rle.Kind != LimitPasses || rle.Component != "topdown" {
		t.Errorf("qsq got Kind=%q Component=%q, want %q/topdown", rle.Kind, rle.Component, LimitPasses)
	}

	// So does its fact budget: every new answer tuple is charged to it.
	var chain strings.Builder
	chain.WriteString("anc(X,Y) :- e(X,Y).\nanc(X,Y) :- e(X,Z), anc(Z,Y).\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&chain, "e(n%d,n%d).\n", i, i+1)
	}
	p, err = ParseProgram(chain.String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Eval(p, NewDatabase(p), "?- anc(n0, Y).", QSQ, WithMaxDerivedFacts(50))
	if !errors.As(err, &rle) {
		t.Fatalf("qsq err = %v, want *ResourceLimitError", err)
	}
	if rle.Kind != LimitFacts || rle.Component != "topdown" || rle.Limit != 50 || rle.Used != 51 {
		t.Errorf("qsq got Kind=%q Component=%q Limit/Used=%d/%d, want %q/topdown 50/51",
			rle.Kind, rle.Component, rle.Limit, rle.Used, LimitFacts)
	}
}

// TestWithMaxDurationZeroIsNoLimit: a zero duration leaves the evaluation
// ungoverned and a finite query still succeeds under a generous deadline.
func TestWithMaxDurationZeroIsNoLimit(t *testing.T) {
	p, err := ParseProgram(cyclicSGSrc)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(p)
	if err := db.LoadFacts("up(a,b). flat(b,c). down(c,d)."); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{nil, {WithMaxDuration(time.Minute)}} {
		res, err := Eval(p, db, "?- sg(a,Y).", SemiNaive, opts...)
		if err != nil {
			t.Fatalf("opts %v: %v", opts, err)
		}
		if len(res.Answers) != 1 {
			t.Fatalf("opts %v: answers = %v", opts, res.Answers)
		}
	}
}
