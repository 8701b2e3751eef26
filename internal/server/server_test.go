package server

// The server's robustness contract, tested white-box: snapshot isolation
// under concurrent writes with injected faults, admission-control
// shedding, write retry/restart semantics, and graceful drain with a
// goroutine-leak assertion.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lincount"
	"lincount/internal/faultinject"
	"lincount/internal/obsv"
	"lincount/internal/workload"
)

// newTestServer builds a server over the trivial projection program
// p(X,Y) :- f(X,Y), so answer count == fact count of f.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Program == nil {
		cfg.Program = lincount.MustParseProgram("p(X,Y) :- f(X,Y).")
	}
	if cfg.DB == nil {
		cfg.DB = lincount.NewDatabase(cfg.Program)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkGoroutines asserts the goroutine count returns to its baseline —
// a drained server leaves nothing behind. Stragglers get a grace period
// (the runtime needs a moment to reap exiting goroutines).
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerQueryWriteRoundTrip(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTestServer(t, Config{})
	ctx := context.Background()

	wres, err := s.Write(ctx, WriteRequest{Assert: "f(a,b). f(b,c)."})
	if err != nil {
		t.Fatal(err)
	}
	if wres.Epoch != 1 {
		t.Fatalf("first write epoch = %d, want 1", wres.Epoch)
	}
	qres, err := s.Query(ctx, QueryRequest{Query: "?- p(X,Y)."})
	if err != nil {
		t.Fatal(err)
	}
	if len(qres.Answers) != 2 {
		t.Fatalf("answers = %v, want 2 rows", qres.Answers)
	}
	if qres.Epoch != 1 {
		t.Fatalf("query epoch = %d, want 1", qres.Epoch)
	}

	// Retract one fact; the next epoch must reflect exactly that.
	wres, err = s.Write(ctx, WriteRequest{Retract: "f(a,b)."})
	if err != nil {
		t.Fatal(err)
	}
	if wres.Epoch != 2 || wres.Retracted != 1 {
		t.Fatalf("retract: epoch=%d retracted=%d, want 2, 1", wres.Epoch, wres.Retracted)
	}
	qres, err = s.Query(ctx, QueryRequest{Query: "?- p(X,Y)."})
	if err != nil {
		t.Fatal(err)
	}
	if len(qres.Answers) != 1 {
		t.Fatalf("answers after retract = %v, want 1 row", qres.Answers)
	}

	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	checkGoroutines(t, before)
}

// TestServerSnapshotIsolation is the acceptance scenario: concurrent
// readers and writers, injected faults on both write-path sites, and the
// invariant that a reader can never observe a partially applied write
// batch. Each write request asserts exactly K facts, so every published
// epoch holds a multiple of K facts of f — any other count is a torn
// batch. A differential oracle then replays the successful writes on a
// fresh database and demands the identical answer set.
func TestServerSnapshotIsolation(t *testing.T) {
	const (
		K          = 5
		numWriters = 4
		numWrites  = 25
		numReaders = 4
	)
	before := runtime.NumGoroutine()

	inj := faultinject.New(42)
	inj.Fail(faultinject.SiteServerApply, 0.10)
	inj.Fail(faultinject.SiteServerPublish, 0.05)
	s := newTestServer(t, Config{
		Inject: inj,
	})
	ctx := context.Background()

	var mu sync.Mutex
	var applied []string // assert text of every write the server accepted

	var writers sync.WaitGroup
	for w := 0; w < numWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for j := 0; j < numWrites; j++ {
				var sb strings.Builder
				for k := 0; k < K; k++ {
					fmt.Fprintf(&sb, "f(w%d_%d,k%d). ", w, j, k)
				}
				res, err := s.Write(ctx, WriteRequest{Assert: sb.String()})
				if err != nil {
					// Only injected faults (after retries ran out) may
					// fail a write here.
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Errorf("writer %d: unexpected error: %v", w, err)
					}
					continue
				}
				if res.Epoch == 0 {
					t.Errorf("writer %d: published epoch 0", w)
				}
				mu.Lock()
				applied = append(applied, sb.String())
				mu.Unlock()
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
				res, err := s.Query(ctx, QueryRequest{Query: "?- p(X,Y)."})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if len(res.Answers)%K != 0 {
					t.Errorf("torn batch: reader saw %d facts at epoch %d (not a multiple of %d)",
						len(res.Answers), res.Epoch, K)
					return
				}
				if res.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", res.Epoch, lastEpoch)
					return
				}
				lastEpoch = res.Epoch
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()

	// Differential oracle: the final snapshot must equal a fresh
	// database with exactly the accepted writes replayed.
	final := s.Snapshot()
	oracle := lincount.NewDatabase(s.cfg.Program)
	for _, text := range applied {
		if err := oracle.LoadFacts(text); err != nil {
			t.Fatal(err)
		}
	}
	want, err := lincount.Eval(s.cfg.Program, oracle, "?- p(X,Y).", lincount.Auto)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lincount.Eval(s.cfg.Program, final.DB, "?- p(X,Y).", lincount.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(got.Answers, want.Answers) {
		t.Fatalf("final state diverged from oracle: server has %d answers, oracle %d",
			len(got.Answers), len(want.Answers))
	}
	if len(applied) == 0 {
		t.Fatal("no write succeeded; fault rates too high for the test to mean anything")
	}

	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	checkGoroutines(t, before)
}

func sameAnswers(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(rows [][]string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = strings.Join(r, "\x1f")
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// TestServerWriteRetry: an injected fault on the apply site fails the
// first attempt; the batch retries on a fresh fork and publishes exactly
// one epoch — the failed attempt leaves no trace.
func TestServerWriteRetry(t *testing.T) {
	inj := faultinject.New(7)
	inj.FailAt(faultinject.SiteServerApply, 1)
	s := newTestServer(t, Config{Inject: inj})
	defer s.Close()
	ctx := context.Background()

	res, err := s.Write(ctx, WriteRequest{Assert: "f(a,b)."})
	if err != nil {
		t.Fatalf("write should have succeeded on retry: %v", err)
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1 (retry must not burn an epoch)", res.Epoch)
	}
}

// TestServerWriteRetryExhausted: when every attempt fails, the write
// reports the injected fault and no epoch is published.
func TestServerWriteRetryExhausted(t *testing.T) {
	inj := faultinject.New(7)
	inj.Fail(faultinject.SiteServerApply, 1.0)
	s := newTestServer(t, Config{Inject: inj})
	defer s.Close()

	_, err := s.Write(context.Background(), WriteRequest{Assert: "f(a,b)."})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := s.Snapshot().Epoch; got != 0 {
		t.Fatalf("epoch = %d after failed write, want 0", got)
	}
}

// TestServerWriteBadRequest: a parse error fails only the offending
// request; the write path keeps serving and the database is untouched by
// the bad text.
func TestServerWriteBadRequest(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ctx := context.Background()

	_, err := s.Write(ctx, WriteRequest{Assert: "this is not datalog((("})
	var badReq *badRequestError
	if !errors.As(err, &badReq) {
		t.Fatalf("err = %v, want badRequestError", err)
	}
	res, err := s.Write(ctx, WriteRequest{Assert: "f(a,b)."})
	if err != nil {
		t.Fatalf("write after bad request: %v", err)
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1 (bad request must not burn an epoch)", res.Epoch)
	}
}

// TestServerAdmissionShed: with the one concurrency slot taken and the
// one queue seat filled, the next request is shed immediately with a
// typed BusyError rather than waiting.
func TestServerAdmissionShed(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	ctx := context.Background()
	if _, err := s.Write(ctx, WriteRequest{Assert: "f(a,b)."}); err != nil {
		t.Fatal(err)
	}

	s.sem <- struct{}{} // occupy the only slot
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- s.acquire(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for s.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := s.Query(ctx, QueryRequest{Query: "?- p(X,Y)."})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Queued != 1 {
		t.Fatalf("err = %#v, want BusyError with Queued=1", err)
	}

	<-s.sem // free the slot; the queued request takes it
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	s.release()

	// With the queue clear again, requests are admitted normally.
	if _, err := s.Query(ctx, QueryRequest{Query: "?- p(X,Y)."}); err != nil {
		t.Fatalf("query after shed: %v", err)
	}

	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before)
}

// TestServerDrainRejectsNewRequests: after Drain begins, both reads and
// writes are refused with ErrDraining; Drain is idempotent.
func TestServerDrainRejectsNewRequests(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTestServer(t, Config{})
	ctx := context.Background()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(ctx, QueryRequest{Query: "?- p(X,Y)."}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Query after drain: %v, want ErrDraining", err)
	}
	if _, err := s.Write(ctx, WriteRequest{Assert: "f(a,b)."}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Write after drain: %v, want ErrDraining", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	if st := s.State(); st != "closed" {
		t.Fatalf("state = %q, want closed", st)
	}
	checkGoroutines(t, before)
}

// TestServerDrainDeadlineForcesCancel: a long-running evaluation (every
// engine fixpoint round delayed by an injected fault) is canceled
// cooperatively when the drain deadline expires; Drain reports the
// forced path, the request unwinds with a cancellation error, and no
// goroutine outlives the drain.
func TestServerDrainDeadlineForcesCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	p := lincount.MustParseProgram(workload.SGProgram)
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(workload.Chain(200)); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Program: p,
		DB:      db,
		EvalOptions: []lincount.Option{
			lincount.WithFaultInjection(3, "engine.iter=delay~1:10ms"),
		},
	})

	qerr := make(chan error, 1)
	go func() {
		// SemiNaive explicitly: Auto must not degrade around the
		// injected delays, and the chain keeps the fixpoint busy for
		// seconds — far longer than the drain deadline below.
		_, err := s.Query(context.Background(), QueryRequest{
			Query: "?- sg(u0,Y).", Strategy: "semi-naive", TimeoutMS: 60_000,
		})
		qerr <- err
	}()
	// Wait until the query is admitted and evaluating.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started evaluating")
		}
		time.Sleep(time.Millisecond)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(dctx)
	if err == nil {
		t.Fatal("Drain = nil, want forced-cancellation error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("forced drain took %v; cooperative cancellation is not prompt", d)
	}
	select {
	case err := <-qerr:
		var canceled *lincount.CanceledError
		if !errors.As(err, &canceled) && !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled query returned %v, want a cancellation error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not unwind after forced drain")
	}
	checkGoroutines(t, before)
}

// TestServerPreparedCacheSurvivesEpochs: the program's plan cache
// serves every epoch — plans are pure functions of program, query and
// strategy, so writes must not invalidate them, and answers must still
// track the snapshot the request was admitted against.
func TestServerPreparedCacheSurvivesEpochs(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ctx := context.Background()

	// An explicit strategy keeps the request on the prepared-evaluation
	// path (auto reads on a maintained server are answered from the
	// materialisation without touching the cache).
	for i := 0; i < 10; i++ {
		if _, err := s.Write(ctx, WriteRequest{Assert: fmt.Sprintf("f(a%d,b%d).", i, i)}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(ctx, QueryRequest{Query: "?- p(X,Y).", Strategy: "semi-naive"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != i+1 {
			t.Fatalf("epoch %d: %d answers, want %d", res.Epoch, len(res.Answers), i+1)
		}
		if i > 0 && !res.PlanCacheHit {
			t.Fatalf("epoch %d: plan cache miss for a query already compiled", res.Epoch)
		}
	}
}

// TestServerMaintainedWrites: a recursive program served from the
// maintained materialisation — writes ride the incremental engine,
// auto reads are answered without evaluation, and every epoch matches
// an explicit from-scratch evaluation of the same snapshot.
func TestServerMaintainedWrites(t *testing.T) {
	p := lincount.MustParseProgram("tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).")
	s := newTestServer(t, Config{Program: p})
	defer s.Close()
	ctx := context.Background()

	if s.Snapshot().Mat == nil {
		t.Fatal("server did not materialise an incrementalisable program")
	}
	steps := []WriteRequest{
		{Assert: "e(a,b). e(b,c)."},
		{Assert: "e(c,d)."},
		{Retract: "e(b,c)."},
		{Assert: "e(b,c). e(d,a)."},
		{Retract: "e(a,b). e(c,d)."},
	}
	for i, req := range steps {
		if _, err := s.Write(ctx, req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		res, err := s.Query(ctx, QueryRequest{Query: "?- tc(X,Y)."})
		if err != nil {
			t.Fatalf("step %d query: %v", i, err)
		}
		if res.Strategy != "materialized" {
			t.Fatalf("step %d: strategy = %q, want materialized", i, res.Strategy)
		}
		want, err := s.Query(ctx, QueryRequest{Query: "?- tc(X,Y).", Strategy: "semi-naive"})
		if err != nil {
			t.Fatalf("step %d eval: %v", i, err)
		}
		if fmt.Sprint(res.Answers) != fmt.Sprint(want.Answers) {
			t.Fatalf("step %d: materialized answers diverge:\n got %v\nwant %v", i, res.Answers, want.Answers)
		}
		snap := s.Snapshot()
		if snap.Mat == nil {
			t.Fatalf("step %d: materialisation lost", i)
		}
		if err := snap.Mat.Verify(ctx); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if n := s.maintBatches.Load(); n == 0 {
		t.Error("no write batch went through maintenance")
	}
	if n := s.maintFallbacks.Load(); n != 0 {
		t.Errorf("maintFallbacks = %d, want 0", n)
	}
}

// TestServerMaintenanceUnavailable: a program with negation is outside
// the maintainable fragment — the server must come up with Mat nil and
// serve reads through per-request evaluation as before.
func TestServerMaintenanceUnavailable(t *testing.T) {
	p := lincount.MustParseProgram("p(X) :- f(X), not g(X).")
	s := newTestServer(t, Config{Program: p})
	defer s.Close()
	ctx := context.Background()

	if s.Snapshot().Mat != nil {
		t.Fatal("negation program unexpectedly materialised")
	}
	if _, err := s.Write(ctx, WriteRequest{Assert: "f(a). f(b). g(b)."}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(ctx, QueryRequest{Query: "?- p(X)."})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Strategy == "materialized" {
		t.Fatalf("answers = %v via %q, want 1 row via evaluation", res.Answers, res.Strategy)
	}
}

// TestServerLogsWhyNotMaterialized: a server that boots unmaterialised
// says why — one info-level line carrying ErrNotIncremental's text —
// instead of leaving /v1/stats to show materialized:false with no reason.
func TestServerLogsWhyNotMaterialized(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		Program: lincount.MustParseProgram("p(X) :- f(X), not g(X)."),
		Log:     obsv.NewLogger(&buf, "json", slog.LevelDebug),
	})
	s.Close()
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] != "not materialized" {
			continue
		}
		found = true
		if rec["level"] != "info" || rec["epoch"] != float64(0) ||
			!strings.Contains(fmt.Sprint(rec["error"]), lincount.ErrNotIncremental.Error()) {
			t.Errorf("log line = %s, want level info, epoch 0 and the ErrNotIncremental text", line)
		}
	}
	if !found {
		t.Fatalf("no \"not materialized\" line in:\n%s", buf.String())
	}
}

// TestServerBatchIsSequential: a batch means on both server modes what
// sequential application means. Retract p(a), then assert p(a,b), with p
// absent and no program predicate: retracting from an absent relation is
// a no-op and fixes no arity, so both requests publish in one epoch and p
// exists at arity 2, on a maintained server and an unmaintained one
// alike.
func TestServerBatchIsSequential(t *testing.T) {
	for _, src := range []string{
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
		"r(X) :- e(X,Y), not f(X).",
	} {
		s := newTestServer(t, Config{Program: lincount.MustParseProgram(src)})
		maintained := s.Snapshot().Mat != nil
		// One batch, as the writer coalesces it: applyBatch directly, the
		// writer goroutine idle.
		batch := []writeReq{
			{req: WriteRequest{Retract: "p(a)."}, done: make(chan writeResult, 1)},
			{req: WriteRequest{Assert: "p(a,b)."}, done: make(chan writeResult, 1)},
		}
		s.applyBatch(batch)
		for i, wr := range batch {
			if res := <-wr.done; res.err != nil || res.epoch != 1 || res.retracted != 0 {
				t.Errorf("maintained=%v: request %d = %+v, want epoch 1, nothing retracted", maintained, i, res)
			}
		}
		res, err := s.Query(context.Background(), QueryRequest{Query: "?- p(X,Y).", Strategy: "semi-naive"})
		if err != nil {
			t.Fatalf("maintained=%v: %v", maintained, err)
		}
		if fmt.Sprint(res.Answers) != "[[a b]]" || res.Epoch != 1 {
			t.Errorf("maintained=%v: p = %v at epoch %d, want [[a b]] at 1", maintained, res.Answers, res.Epoch)
		}
		s.Close()
	}
}
