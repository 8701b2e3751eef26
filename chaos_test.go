package lincount_test

// The chaos suite: seeded fault schedules crossed with every strategy
// and every corpus program, checked by the differential oracle. The
// robustness invariant under test: every run either matches the naive
// oracle exactly or returns a classified error — never a panic, never
// silently wrong answers. This file is an external test package so it
// can exercise the public API exactly as an embedding process would,
// with internal/oracle as the referee.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lincount"
	"lincount/internal/faultinject"
	"lincount/internal/oracle"
	"lincount/internal/server"
	"lincount/internal/wal"
)

type chaosCase struct {
	name   string
	text   string
	cyclic bool
}

// loadChaosCorpus reads testdata/*.dl (the golden corpus; see
// corpus_test.go for the format). The external test package keeps its
// own loader on purpose: it may only consume what a real embedder could.
func loadChaosCorpus(t *testing.T) []chaosCase {
	t.Helper()
	paths, err := filepath.Glob("testdata/*.dl")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus files found")
	}
	var cases []chaosCase
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c := chaosCase{name: filepath.Base(path), text: string(data)}
		for _, line := range strings.Split(c.text, "\n") {
			if strings.TrimSpace(line) == "% cyclic" {
				c.cyclic = true
			}
		}
		cases = append(cases, c)
	}
	return cases
}

// chaosStrategies is the strategy sweep for one case: Auto plus every
// concrete strategy, minus the acyclic-only counting rewritings on
// cyclic databases (where they legitimately diverge — the paper's
// point, not a robustness bug).
func chaosStrategies(cyclic bool) []lincount.Strategy {
	out := []lincount.Strategy{lincount.Auto}
	for _, s := range lincount.Strategies() {
		if cyclic && (s == lincount.CountingClassic || s == lincount.Counting || s == lincount.CountingReduced) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// The fault schedules. Each targets a different layer of the system;
// "storm" sprays every site probabilistically and "latency" checks that
// injected delays perturb timing without perturbing answers.
var chaosSchedules = []struct {
	name string
	spec string
}{
	{"insert-err", "engine.insert=err@40"},
	{"probe-err", "engine.probe=err~0.002"},
	{"iter-cancel", "engine.iter=cancel@3"},
	{"counting-err", "counting.node=err@5,counting.step=err@7"},
	{"late-insert-err", "engine.insert=err@400"},
	{"topdown-err", "topdown.probe=err@25,topdown.pass=cancel@4"},
	{"storm", "*=err~0.01"},
	{"latency", "engine.iter=delay@2:200us,counting.step=delay@3:50us"},
}

var chaosBudget = []lincount.Option{
	lincount.WithMaxIterations(50_000),
	lincount.WithMaxDerivedFacts(2_000_000),
}

// TestChaosInvariant is the tentpole invariant: corpus × schedules ×
// seeds × strategies, every run matches the oracle or fails with a
// classified error.
func TestChaosInvariant(t *testing.T) {
	seeds := []int64{1, 7}
	for _, c := range loadChaosCorpus(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p, err := lincount.ParseProgram(c.text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			queries := p.Queries()
			if len(queries) != 1 {
				t.Fatalf("expected exactly one query, got %v", queries)
			}
			db := lincount.NewDatabase(p)
			strategies := chaosStrategies(c.cyclic)
			for _, sched := range chaosSchedules {
				for _, seed := range seeds {
					runOpts := append(append([]lincount.Option{}, chaosBudget...),
						lincount.WithFaultInjection(seed, sched.spec))
					rep, err := oracle.Check(context.Background(), p, db, queries[0],
						strategies, chaosBudget, runOpts)
					if err != nil {
						t.Fatalf("%s seed %d: %v", sched.name, seed, err)
					}
					if !rep.OK() {
						t.Errorf("%s seed %d: invariant violated:\n%s", sched.name, seed, rep)
					}
				}
			}
		})
	}
}

// TestChaosTopdownScheduleFires: the topdown-err schedule is not passed
// vacuously. Forced QSQ under it fails with a classified injected fault
// on every corpus program whose clean run takes at least four passes
// (the pass cancellation), and the per-row probe fault fires on some.
func TestChaosTopdownScheduleFires(t *testing.T) {
	var spec string
	for _, s := range chaosSchedules {
		if s.name == "topdown-err" {
			spec = s.spec
		}
	}
	var canceled, probed int
	for _, c := range loadChaosCorpus(t) {
		p, err := lincount.ParseProgram(c.text)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		db := lincount.NewDatabase(p)
		query := p.Queries()[0]
		clean, err := lincount.Eval(p, db, query, lincount.QSQ, chaosBudget...)
		if oracle.Classify(err) == oracle.NotApplicable {
			continue
		}
		if err != nil {
			t.Fatalf("%s: clean run: %v", c.name, err)
		}
		_, err = lincount.Eval(p, db, query, lincount.QSQ,
			append([]lincount.Option{lincount.WithFaultInjection(1, spec)}, chaosBudget...)...)
		if class := oracle.Classify(err); err != nil && class != oracle.InjectedFault {
			t.Errorf("%s: %v (%s), want an injected fault", c.name, err, class)
		}
		var ce *lincount.CanceledError
		switch {
		case err == nil:
			if clean.Stats.Iterations >= 4 {
				t.Errorf("%s: %d passes and the pass cancellation did not fire", c.name, clean.Stats.Iterations)
			}
		case errors.As(err, &ce):
			canceled++
		default:
			probed++
		}
	}
	t.Logf("topdown-err: %d pass cancellations, %d probe faults", canceled, probed)
	if canceled == 0 || probed == 0 {
		t.Errorf("topdown-err fired %d pass cancellations and %d probe faults, want both", canceled, probed)
	}
}

// TestChaosAutoVerdict runs Auto over the whole corpus, cyclic and
// acyclic programs alike, without faults: cold (a fresh plan.Shared),
// then twice through the program's plan cache. Whatever Auto resolves to
// must answer like the oracle without a single failed attempt — a
// counting rewrite picked where the binding reaches a cycle would trip
// its budget and show up as a degradation — and on the corpus's cyclic
// databases the pick must not be the path-carrying rewrite (the reduced
// one has no paths left to grow).
func TestChaosAutoVerdict(t *testing.T) {
	for _, c := range loadChaosCorpus(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p, err := lincount.ParseProgram(c.text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			db := lincount.NewDatabase(p)
			query := p.Queries()[0]
			for _, pass := range []struct {
				name string
				opts []lincount.Option
			}{{"cold", []lincount.Option{lincount.WithoutPlanCache()}}, {"miss", nil}, {"hit", nil}} {
				rep, err := oracle.Check(context.Background(), p, db, query,
					[]lincount.Strategy{lincount.Auto}, chaosBudget, append(pass.opts, chaosBudget...))
				if err != nil {
					t.Fatalf("%s: %v", pass.name, err)
				}
				run := rep.Runs[0]
				if !rep.OK() || run.Class != oracle.OK || run.Degraded != 0 {
					t.Errorf("%s: auto must answer like the oracle at the first attempt:\n%s", pass.name, rep)
				}
				if c.cyclic && run.Resolved == lincount.Counting {
					t.Errorf("%s: auto resolved to %s on a cyclic database", pass.name, run.Resolved)
				}
			}
		})
	}
}

// TestChaosDeterministic: the same seed must reproduce the same outcome
// classes — the property that makes chaos failures debuggable.
func TestChaosDeterministic(t *testing.T) {
	p := lincount.MustParseProgram(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
par(a,b). par(b,c). par(c,d). par(d,e). par(e,f).
?- anc(a, Y).
`)
	db := lincount.NewDatabase(p)
	outcome := func(seed int64) string {
		var parts []string
		for _, s := range []lincount.Strategy{lincount.SemiNaive, lincount.Magic, lincount.QSQ} {
			_, err := lincount.Eval(p, db, "?- anc(a, Y).", s,
				lincount.WithFaultInjection(seed, "*=err~0.05"))
			parts = append(parts, oracle.Classify(err).String())
		}
		return strings.Join(parts, ",")
	}
	first := outcome(42)
	for i := 0; i < 3; i++ {
		if got := outcome(42); got != first {
			t.Fatalf("seed 42 run %d: outcomes %q, want %q", i, got, first)
		}
	}
}

// TestChaosMalformedSpec: a bad schedule must fail before any work.
func TestChaosMalformedSpec(t *testing.T) {
	p := lincount.MustParseProgram(`p(X) :- q(X). q(a). ?- p(X).`)
	db := lincount.NewDatabase(p)
	for _, spec := range []string{"bogus.site=err@1", "engine.insert=explode@1", "engine.insert=err@0", "engine.insert=err~2"} {
		if _, err := lincount.Eval(p, db, "?- p(X).", lincount.Auto,
			lincount.WithFaultInjection(0, spec)); err == nil {
			t.Errorf("spec %q: expected an error", spec)
		}
	}
}

// mutualProgram is a two-predicate linear clique over a cyclic left graph
// (p(a) → q(b) → p(c) → q(b)): Auto resolves it to the counting runtime
// (the general-linear class on cyclic data), which makes it the vehicle
// for the degradation tests below.
const mutualProgram = `
p(X,Y) :- flat(X,Y).
p(X,Y) :- up(X,X1), q(X1,Y1), down(Y1,Y).
q(X,Y) :- over(X,X1), p(X1,Y1), under(Y1,Y).
up(a,b). over(b,c). up(c,b).
flat(c,c2). flat(a,a2).
under(c2,u). down(u,v).
?- p(a,Y).
`

// TestDegradedFallbackOnBudget is the acceptance scenario: a query whose
// counting run fails under Auto (an injected fault at its first counting
// node) must return correct answers via the fallback chain, with the
// attempt recorded and the shared fact budget honored across attempts.
func TestDegradedFallbackOnBudget(t *testing.T) {
	p := lincount.MustParseProgram(mutualProgram)
	db := lincount.NewDatabase(p)
	q := "?- p(a,Y)."

	chain, err := lincount.FallbackChain(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if chain[0] != lincount.CountingRuntime {
		t.Fatalf("fallback chain %v: expected the counting runtime first (the test premise)", chain)
	}

	want, err := lincount.Eval(p, db, q, lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}

	const sharedFacts = 10_000
	res, err := lincount.Eval(p, db, q, lincount.Auto,
		lincount.WithFaultInjection(1, "counting.node=err@1"),
		lincount.WithMaxDerivedFacts(sharedFacts))
	if err != nil {
		t.Fatalf("Auto must degrade, not fail: %v", err)
	}
	if res.Resolved != lincount.CountingRuntime {
		t.Errorf("Resolved = %v, want counting-runtime", res.Resolved)
	}
	if res.Strategy == lincount.CountingRuntime {
		t.Errorf("Strategy = %v: the tripped strategy cannot be the one that answered", res.Strategy)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("no degradation attempts recorded")
	}
	first := res.Degraded[0]
	if first.Strategy != lincount.CountingRuntime {
		t.Errorf("Degraded[0].Strategy = %v, want counting-runtime", first.Strategy)
	}
	if !strings.Contains(first.Err, "injected fault") {
		t.Errorf("Degraded[0].Err = %q, want the injected fault", first.Err)
	}
	if join(res.Answers) != join(want.Answers) {
		t.Errorf("degraded answers %v, want %v", res.Answers, want.Answers)
	}
	// The shared budget holds across attempts: the successful fallback's
	// own consumption stayed within what the failed attempt left.
	if res.Stats.DerivedFacts >= sharedFacts {
		t.Errorf("fallback derived %d facts, exceeding the shared budget %d", res.Stats.DerivedFacts, sharedFacts)
	}
}

// TestDegradedSharedBudgetExhaustion: when the failed attempt consumed
// the whole shared budget there is nothing left for a fallback, and the
// evaluation reports the limit trip rather than silently retrying with
// a fresh allowance.
func TestDegradedSharedBudgetExhaustion(t *testing.T) {
	p := lincount.MustParseProgram(mutualProgram)
	db := lincount.NewDatabase(p)
	// The counting runtime consumes the shared budget itself, so its trip
	// leaves no headroom.
	_, err := lincount.Eval(p, db, "?- p(a,Y).", lincount.Auto,
		lincount.WithMaxDerivedFacts(1))
	if err == nil {
		t.Fatal("expected the shared budget to fail the evaluation")
	}
	if !errors.Is(err, lincount.ErrResourceLimit) {
		t.Fatalf("err = %v, want a resource-limit error", err)
	}
}

// TestDegradedFallbackOnInjectedFault: an injected fault in the counting
// runtime must degrade to a working strategy with correct answers. The
// fault sits in phase 2: one in phase 1 would hit the planner's probe,
// which degrades the ranking, not the evaluation
// (TestProbeFaultDegradesRanking).
func TestDegradedFallbackOnInjectedFault(t *testing.T) {
	p := lincount.MustParseProgram(mutualProgram)
	db := lincount.NewDatabase(p)
	q := "?- p(a,Y)."
	want, err := lincount.Eval(p, db, q, lincount.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lincount.Eval(p, db, q, lincount.Auto,
		lincount.WithFaultInjection(3, "counting.step=err@1"))
	if err != nil {
		t.Fatalf("Auto must degrade around the injected fault: %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("no degradation attempts recorded")
	}
	if res.Degraded[0].Strategy != lincount.CountingRuntime {
		t.Errorf("Degraded[0].Strategy = %v, want counting-runtime", res.Degraded[0].Strategy)
	}
	if join(res.Answers) != join(want.Answers) {
		t.Errorf("answers %v, want %v", res.Answers, want.Answers)
	}
}

// TestDegradedExplicitStrategyFailsFast: only Auto degrades — an
// explicit strategy must report its own failure.
func TestDegradedExplicitStrategyFailsFast(t *testing.T) {
	p := lincount.MustParseProgram(mutualProgram)
	db := lincount.NewDatabase(p)
	_, err := lincount.Eval(p, db, "?- p(a,Y).", lincount.CountingRuntime,
		lincount.WithMaxDerivedFacts(1))
	if err == nil {
		t.Fatal("explicit counting-runtime must fail on its budget, not degrade")
	}
	if !errors.Is(err, lincount.ErrResourceLimit) {
		t.Fatalf("err = %v, want a resource-limit error", err)
	}
}

// TestDegradedCancellationFailsFast: real cancellation is never
// retryable — retrying a canceled evaluation only wastes time.
func TestDegradedCancellationFailsFast(t *testing.T) {
	p := lincount.MustParseProgram(mutualProgram)
	db := lincount.NewDatabase(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := lincount.EvalContext(ctx, p, db, "?- p(a,Y).", lincount.Auto)
	if err == nil {
		t.Fatalf("expected cancellation, got %d answers via %v", len(res.Answers), res.Strategy)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResolvedMetadata: Resolved is populated on clean runs too.
func TestResolvedMetadata(t *testing.T) {
	p := lincount.MustParseProgram(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
par(a,b). par(b,c).
?- anc(a, Y).
`)
	db := lincount.NewDatabase(p)
	res, err := lincount.Eval(p, db, "?- anc(a, Y).", lincount.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved != res.Strategy {
		t.Errorf("clean run: Resolved %v != Strategy %v", res.Resolved, res.Strategy)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("clean run recorded attempts: %v", res.Degraded)
	}
	res, err = lincount.Eval(p, db, "?- anc(a, Y).", lincount.QSQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved != lincount.QSQ {
		t.Errorf("explicit run: Resolved = %v, want qsq", res.Resolved)
	}
}

func join(rows [][]string) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = strings.Join(r, ",")
	}
	return strings.Join(parts, "|")
}

// TestChaosServerMVCC is the server-side chaos scenario: a live query
// server under concurrent readers and writers while seeded faults hit
// the write path (server.write, server.publish) and delays perturb the
// read path. Three invariants:
//
//  1. Snapshot isolation — every write request carries exactly K facts,
//     so any reader count not a multiple of K is a torn batch.
//  2. Classified failure — a request either succeeds or fails with a
//     typed, explainable error; never a panic, never a garbage answer.
//  3. Convergence — the final snapshot equals a fresh database with
//     exactly the acknowledged writes replayed (differential oracle).
func TestChaosServerMVCC(t *testing.T) {
	const (
		K          = 4
		numWriters = 3
		numWrites  = 20
		numReaders = 3
	)
	schedules := []struct {
		name  string
		seed  int64
		spec  string // write-path schedule, armed on the server injector
		evals string // read-path schedule, applied to every evaluation
		// unmaintained serves a program with negation: no
		// materialisation, so every batch takes Database.Apply.
		unmaintained bool
	}{
		{"write-err", 11, "server.write=err~0.15", "", false},
		{"publish-err", 12, "server.publish=err~0.10", "", false},
		{"write-latency", 13, "server.write=delay~0.5:200us,server.publish=delay~0.3:100us", "", false},
		{"mixed-storm", 14, "server.write=err~0.08,server.publish=err~0.05", "engine.iter=delay~0.2:100us,counting.step=delay~0.1:50us", false},
		{"negation-unmaintained", 15, "server.write=err~0.10,server.publish=err~0.05", "", true},
	}
	// Goroutine hygiene: everything the schedules spawn — writers,
	// readers, the servers' own workers — must be gone once the group
	// finishes. The group wrapper forces every parallel subtest to
	// complete before the leak check below runs.
	goroutinesBefore := runtime.NumGoroutine()
	t.Run("schedules", func(t *testing.T) {
		for _, sched := range schedules {
			sched := sched
			t.Run(sched.name, func(t *testing.T) {
				t.Parallel()
				src := "p(X,Y) :- f(X,Y)."
				if sched.unmaintained {
					src = "p(X,Y) :- f(X,Y), not g(X)."
				}
				p := lincount.MustParseProgram(src)
				inj, err := faultinject.ParseSpec(sched.seed, sched.spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := server.Config{
					Program: p,
					DB:      lincount.NewDatabase(p),
					Inject:  inj,
				}
				if sched.evals != "" {
					cfg.EvalOptions = []lincount.Option{
						lincount.WithFaultInjection(sched.seed, sched.evals),
					}
				}
				s, err := server.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if maintained := s.Snapshot().Mat != nil; maintained == sched.unmaintained {
					t.Fatalf("server maintained = %v, want %v", maintained, !sched.unmaintained)
				}
				ctx := context.Background()

				var mu sync.Mutex
				var applied []struct {
					assert, retract string
				}

				var writers sync.WaitGroup
				for w := 0; w < numWriters; w++ {
					writers.Add(1)
					go func(w int) {
						defer writers.Done()
						lastOK := -1 // index of this writer's last acknowledged assert
						for j := 0; j < numWrites; j++ {
							req := server.WriteRequest{}
							factsOf := func(j int) string {
								var sb strings.Builder
								for k := 0; k < K; k++ {
									fmt.Fprintf(&sb, "f(w%d_%d,k%d). ", w, j, k)
								}
								return sb.String()
							}
							// Every third op retracts the writer's previous
							// acknowledged group — still exactly K facts, so
							// the multiple-of-K invariant holds throughout.
							if j%3 == 2 && lastOK >= 0 {
								req.Retract = factsOf(lastOK)
								lastOK = -1
							} else {
								req.Assert = factsOf(j)
							}
							res, err := s.Write(ctx, req)
							if err != nil {
								if !errors.Is(err, faultinject.ErrInjected) {
									t.Errorf("writer %d: unclassified error: %v", w, err)
								}
								continue
							}
							if res.Epoch == 0 {
								t.Errorf("writer %d: acknowledged write at epoch 0", w)
							}
							if req.Assert != "" {
								lastOK = j
							}
							mu.Lock()
							applied = append(applied, struct{ assert, retract string }{req.Assert, req.Retract})
							mu.Unlock()
							// Maintenance differential oracle: after every
							// acknowledged write batch, the incrementally
							// maintained materialisation must equal a
							// from-scratch re-evaluation of its snapshot.
							if snap := s.Snapshot(); snap.Mat != nil {
								if err := snap.Mat.Verify(ctx); err != nil {
									t.Errorf("writer %d: maintenance diverged at epoch %d: %v", w, snap.Epoch, err)
									return
								}
							}
						}
					}(w)
				}

				stop := make(chan struct{})
				var readers sync.WaitGroup
				for r := 0; r < numReaders; r++ {
					readers.Add(1)
					go func() {
						defer readers.Done()
						var lastEpoch uint64
						for {
							select {
							case <-stop:
								return
							default:
							}
							// Live introspection under load: the registry must
							// expose only well-formed entries — our one query
							// text, nonzero ids, never more slots than there
							// are readers to fill them.
							for _, q := range s.ActiveQueries() {
								if q.ID == 0 {
									t.Error("registry entry with zero id")
									return
								}
								if q.Query != "?- p(X,Y)." {
									t.Errorf("registry leaked a foreign query: %q", q.Query)
									return
								}
							}
							if n := len(s.ActiveQueries()); n > numReaders {
								t.Errorf("registry holds %d entries with only %d readers", n, numReaders)
								return
							}
							res, err := s.Query(ctx, server.QueryRequest{Query: "?- p(X,Y)."})
							if err != nil {
								// Read-path faults must surface classified.
								if !errors.Is(err, faultinject.ErrInjected) &&
									!errors.Is(err, lincount.ErrResourceLimit) &&
									!errors.Is(err, context.Canceled) {
									t.Errorf("reader: unclassified error: %v", err)
									return
								}
								continue
							}
							if len(res.Answers)%K != 0 {
								t.Errorf("torn batch: %d facts at epoch %d (not a multiple of %d)",
									len(res.Answers), res.Epoch, K)
								return
							}
							if res.Epoch < lastEpoch {
								t.Errorf("epoch regressed: %d after %d", res.Epoch, lastEpoch)
								return
							}
							lastEpoch = res.Epoch
						}
					}()
				}

				writers.Wait()
				close(stop)
				readers.Wait()

				// Differential oracle on the final state: replay exactly the
				// acknowledged operations, in acknowledgment order, on a
				// fresh database. Writers use disjoint fact namespaces and
				// each writer's ops are sequential, so replay order across
				// writers commutes.
				oracleDB := lincount.NewDatabase(p)
				for _, op := range applied {
					if op.assert != "" {
						if err := oracleDB.LoadFacts(op.assert); err != nil {
							t.Fatal(err)
						}
					}
					if op.retract != "" {
						if _, err := oracleDB.RetractFacts(op.retract); err != nil {
							t.Fatal(err)
						}
					}
				}
				want, err := lincount.Eval(p, oracleDB, "?- p(X,Y).", lincount.SemiNaive)
				if err != nil {
					t.Fatal(err)
				}
				got, err := lincount.Eval(p, s.Snapshot().DB, "?- p(X,Y).", lincount.SemiNaive)
				if err != nil {
					t.Fatal(err)
				}
				sortRows := func(rows [][]string) []string {
					out := make([]string, len(rows))
					for i, r := range rows {
						out[i] = strings.Join(r, ",")
					}
					sort.Strings(out)
					return out
				}
				g, o := sortRows(got.Answers), sortRows(want.Answers)
				if strings.Join(g, "|") != strings.Join(o, "|") {
					t.Fatalf("final state diverged from oracle:\nserver: %d answers\noracle: %d answers",
						len(g), len(o))
				}
				// The maintained materialisation must agree with the same
				// oracle: its answers are what auto reads were served from.
				if snap := s.Snapshot(); snap.Mat != nil {
					mrows, err := snap.Mat.Answers("?- p(X,Y).")
					if err != nil {
						t.Fatal(err)
					}
					if m := sortRows(mrows); strings.Join(m, "|") != strings.Join(o, "|") {
						t.Fatalf("materialisation diverged from oracle:\nmaterialized: %d answers\noracle: %d answers",
							len(m), len(o))
					}
					if err := snap.Mat.Verify(ctx); err != nil {
						t.Fatalf("final maintenance verify: %v", err)
					}
				} else if !sched.unmaintained {
					t.Error("server lost its materialisation during the chaos run")
				}

				if err := s.Drain(ctx); err != nil {
					t.Fatalf("Drain: %v", err)
				}
				// The registry drained with the requests: a leaked entry
				// here is a slot whose end() never ran.
				if qs := s.ActiveQueries(); len(qs) != 0 {
					t.Errorf("registry leaked %d entries after drain: %+v", len(qs), qs)
				}
			})
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live after the chaos schedules, started with %d",
				runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCrashRecovery is the durability chaos scenario: a durable
// server under concurrent writers while seeded faults hit the WAL
// append/fsync and publish sites, then a simulated SIGKILL — the data
// directory is copied byte-for-byte while the server is still running —
// and a fresh server recovers from the copy. Because the copy is taken
// with no write in flight, the recovered state must equal the
// acknowledged operations exactly (the differential oracle), not merely
// contain them. Two damage variants run on further copies: garbage
// appended to the live segment (a torn tail, silently truncated) and a
// mid-file bit flip (hard WALCorruptError — recovery must refuse).
func TestChaosCrashRecovery(t *testing.T) {
	const (
		K          = 4
		numWriters = 3
		numWrites  = 12 // per writer per phase; a checkpoint separates the phases
	)
	schedules := []struct {
		name string
		seed int64
		spec string
	}{
		{"clean", 21, ""},
		{"append-err", 22, "wal.append=err~0.15"},
		{"fsync-err", 23, "wal.fsync=err~0.10"},
		{"durability-storm", 24, "server.publish=err~0.05,wal.append=err~0.08,wal.fsync=err~0.05"},
	}
	for _, sched := range schedules {
		sched := sched
		t.Run(sched.name, func(t *testing.T) {
			t.Parallel()
			p := lincount.MustParseProgram("p(X,Y) :- f(X,Y).")
			dataDir := filepath.Join(t.TempDir(), "data")
			cfg := server.Config{
				Program:           p,
				DB:                lincount.NewDatabase(p),
				DataDir:           dataDir,
				CheckpointBytes:   -1, // explicit checkpoints only: keeps the
				CheckpointRecords: -1, // damage variants' segment layout stable
			}
			if sched.spec != "" {
				inj, err := faultinject.ParseSpec(sched.seed, sched.spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Inject = inj
			}
			s, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			var mu sync.Mutex
			var applied []struct {
				assert, retract string
			}

			// phase runs every writer over [lo, hi): the same K-facts-per-op
			// shape as TestChaosServerMVCC, every third op retracting the
			// writer's previous acknowledged group. Only acknowledged ops
			// enter the oracle log.
			phase := func(lo, hi int) {
				var writers sync.WaitGroup
				for w := 0; w < numWriters; w++ {
					writers.Add(1)
					go func(w int) {
						defer writers.Done()
						lastOK := -1
						for j := lo; j < hi; j++ {
							req := server.WriteRequest{}
							factsOf := func(j int) string {
								var sb strings.Builder
								for k := 0; k < K; k++ {
									fmt.Fprintf(&sb, "f(w%d_%d,k%d). ", w, j, k)
								}
								return sb.String()
							}
							if j%3 == 2 && lastOK >= 0 {
								req.Retract = factsOf(lastOK)
								lastOK = -1
							} else {
								req.Assert = factsOf(j)
							}
							res, err := s.Write(ctx, req)
							if err != nil {
								if !errors.Is(err, faultinject.ErrInjected) {
									t.Errorf("writer %d: unclassified error: %v", w, err)
								}
								continue
							}
							if res.Epoch == 0 {
								t.Errorf("writer %d: acknowledged write at epoch 0", w)
							}
							if req.Assert != "" {
								lastOK = j
							}
							mu.Lock()
							applied = append(applied, struct{ assert, retract string }{req.Assert, req.Retract})
							mu.Unlock()
						}
					}(w)
				}
				writers.Wait()
			}

			phase(0, numWrites)
			// Checkpoint mid-stream: recovery below must stitch the snapshot
			// together with the post-checkpoint log records. The schedule's
			// wal.fsync fault may land on the rotation's own seal-fsync; a
			// checkpoint failed that way must publish nothing and leave the
			// server writing to the log it had — the recovery checks below
			// then run over no snapshot plus the full log.
			_, ckptErr := s.Checkpoint(ctx)
			if ckptErr != nil {
				if !errors.Is(ckptErr, faultinject.ErrInjected) {
					t.Fatalf("checkpoint: %v", ckptErr)
				}
				entries, err := os.ReadDir(dataDir)
				if err != nil {
					t.Fatal(err)
				}
				segments := 0
				for _, e := range entries {
					if _, ok := wal.SegmentSeq(e.Name()); ok {
						segments++
					} else {
						t.Errorf("failed checkpoint left %s behind", e.Name())
					}
				}
				if segments != 1 {
					t.Errorf("failed checkpoint left %d segments, want the one it started with", segments)
				}
			}
			acked := len(applied)
			phase(numWrites, 2*numWrites)
			if ckptErr != nil && len(applied) == acked {
				t.Errorf("no write acknowledged after the failed checkpoint")
			}

			finalEpoch := s.Snapshot().Epoch

			// The SIGKILL image: copy the directory while the server still
			// holds the log open. No write is in flight, so the image holds
			// exactly the acknowledged state.
			copyData := func() string {
				t.Helper()
				dst := filepath.Join(t.TempDir(), "data")
				if err := os.MkdirAll(dst, 0o755); err != nil {
					t.Fatal(err)
				}
				entries, err := os.ReadDir(dataDir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if e.IsDir() {
						continue
					}
					data, err := os.ReadFile(filepath.Join(dataDir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return dst
			}
			liveSegment := func(dir string) string {
				t.Helper()
				segs, err := wal.ListSegments(dir)
				if err != nil || len(segs) == 0 {
					t.Fatalf("no WAL segments in %s: %v", dir, err)
				}
				return filepath.Join(dir, segs[len(segs)-1].Name)
			}
			recoverFrom := func(dir string) (*server.Server, error) {
				return server.New(server.Config{
					Program:           p,
					DB:                lincount.NewDatabase(p),
					DataDir:           dir,
					CheckpointBytes:   -1,
					CheckpointRecords: -1,
				})
			}
			sortRows := func(rows [][]string) string {
				out := make([]string, len(rows))
				for i, r := range rows {
					out[i] = strings.Join(r, ",")
				}
				sort.Strings(out)
				return strings.Join(out, "|")
			}

			// The differential oracle: a fresh database with exactly the
			// acknowledged ops replayed.
			oracleDB := lincount.NewDatabase(p)
			mu.Lock()
			for _, op := range applied {
				if op.assert != "" {
					if err := oracleDB.LoadFacts(op.assert); err != nil {
						t.Fatal(err)
					}
				}
				if op.retract != "" {
					if _, err := oracleDB.RetractFacts(op.retract); err != nil {
						t.Fatal(err)
					}
				}
			}
			mu.Unlock()
			want, err := lincount.Eval(p, oracleDB, "?- p(X,Y).", lincount.SemiNaive)
			if err != nil {
				t.Fatal(err)
			}
			wantRows := sortRows(want.Answers)

			checkRecovered := func(t *testing.T, dir string) *server.Server {
				t.Helper()
				s2, err := recoverFrom(dir)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				if got := s2.Snapshot().Epoch; got != finalEpoch {
					t.Errorf("recovered epoch %d, want %d", got, finalEpoch)
				}
				res, err := lincount.Eval(p, s2.Snapshot().DB, "?- p(X,Y).", lincount.SemiNaive)
				if err != nil {
					t.Fatalf("query after recovery: %v", err)
				}
				if len(res.Answers)%K != 0 {
					t.Errorf("torn batch after recovery: %d facts (not a multiple of %d)", len(res.Answers), K)
				}
				if got := sortRows(res.Answers); got != wantRows {
					t.Errorf("recovered state diverged from oracle:\nrecovered: %d answers\noracle:    %d answers",
						len(res.Answers), len(want.Answers))
				}
				return s2
			}

			// 1. Clean SIGKILL image: exact oracle equality.
			s2 := checkRecovered(t, copyData())
			if err := s2.Drain(ctx); err != nil {
				t.Fatalf("Drain recovered: %v", err)
			}

			// 2. Torn tail: garbage after the last complete record is an
			// interrupted append — truncated, everything acknowledged kept.
			tornDir := copyData()
			torn := []byte{0x20, 0, 0, 0, 0xde, 0xad, 0xbe} // partial frame: length 32, 3 payload bytes
			f, err := os.OpenFile(liveSegment(tornDir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(torn); err != nil {
				t.Fatal(err)
			}
			f.Close()
			s3 := checkRecovered(t, tornDir)
			if got := s3.Recovery().TruncatedBytes; got != int64(len(torn)) {
				t.Errorf("TruncatedBytes = %d, want %d", got, len(torn))
			}
			if err := s3.Drain(ctx); err != nil {
				t.Fatalf("Drain torn-tail recovered: %v", err)
			}

			// 3. Mid-file bit flip: damage before the last record cannot be
			// a torn append — recovery must refuse with WALCorruptError
			// rather than serve a state missing acknowledged writes. Needs
			// at least two records in the segment so the flip is mid-file.
			corruptDir := copyData()
			seg := liveSegment(corruptDir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if records := countFrames(data); records >= 2 {
				data[len(wal.Magic)+8] ^= 0x01 // first payload byte of the first record
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := recoverFrom(corruptDir)
				var corrupt *wal.WALCorruptError
				if !errors.As(err, &corrupt) {
					t.Errorf("recovery over mid-file corruption: err = %v, want WALCorruptError", err)
				}
			}

			if err := s.Drain(ctx); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		})
	}
}

// countFrames walks a segment's frame chain (4-byte little-endian
// length + 4-byte CRC + payload) and returns how many complete records
// it holds.
func countFrames(data []byte) int {
	off := len(wal.Magic)
	n := 0
	for off+8 <= len(data) {
		ln := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		if off+8+ln > len(data) {
			break
		}
		off += 8 + ln
		n++
	}
	return n
}
