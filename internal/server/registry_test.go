package server

// Per-request observability: the active-query registry's lifecycle and
// kill semantics (unit level and through a live server), the slow-query
// log's capture contract, and the zero-allocation guarantee of the
// tracking machinery on the off path.

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lincount"
	"lincount/internal/obsv"
	"lincount/internal/workload"
)

func TestRegistryLifecycle(t *testing.T) {
	r := newRegistry(2)
	if got := r.active(); got != 0 {
		t.Fatalf("active = %d, want 0", got)
	}
	deadline := time.Now().Add(time.Second)
	s1 := r.begin("req-1", "?- p(X).", func() {}, deadline)
	s2 := r.begin("req-2", "?- q(X).", func() {}, deadline)
	if s1 == nil || s2 == nil {
		t.Fatal("begin returned nil with free slots")
	}
	if s1.ID() == s2.ID() || s1.ID() == 0 {
		t.Fatalf("ids not unique/nonzero: %d, %d", s1.ID(), s2.ID())
	}
	// Pool exhausted: a third begin degrades to untracked, and every
	// method tolerates the nil slot.
	s3 := r.begin("req-3", "?- r(X).", func() {}, deadline)
	if s3 != nil {
		t.Fatalf("begin with full pool = %v, want nil", s3)
	}
	r.setRunning(s3, "semi-naive", 1)
	if r.end(s3) || r.killed(s3) || s3.ID() != 0 || s3.Facts() != nil {
		t.Fatal("nil slot operations must be inert")
	}

	r.setRunning(s1, "semi-naive", 7)
	s1.Facts().Store(42)
	infos := r.snapshot(time.Now())
	if len(infos) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(infos))
	}
	if infos[0].ID != s1.ID() || infos[1].ID != s2.ID() {
		t.Fatalf("snapshot not oldest-first: %+v", infos)
	}
	got := infos[0]
	if got.RequestID != "req-1" || got.Query != "?- p(X)." ||
		got.Strategy != "semi-naive" || got.Epoch != 7 || got.Facts != 42 {
		t.Fatalf("snapshot entry = %+v", got)
	}
	if got.DeadlineInUS <= 0 {
		t.Fatalf("DeadlineInUS = %d, want positive", got.DeadlineInUS)
	}

	if r.end(s1) {
		t.Fatal("end reported killed for an unkilled slot")
	}
	if got := r.active(); got != 1 {
		t.Fatalf("active after end = %d, want 1", got)
	}
	// The freed slot is reusable.
	if s4 := r.begin("req-4", "?- s(X).", func() {}, deadline); s4 == nil {
		t.Fatal("freed slot not reusable")
	}
}

func TestRegistryKill(t *testing.T) {
	r := newRegistry(4)
	canceled := make(chan string, 4)
	mk := func(req string) *qslot {
		return r.begin(req, "?- p(X).", func() { canceled <- req }, time.Time{})
	}
	byNum := mk("alpha")
	byReq := mk("beta")
	mk("gamma")

	// Kill by decimal registry id.
	id, ok := r.kill(strconv.FormatUint(byNum.ID(), 10))
	if !ok || id != byNum.ID() {
		t.Fatalf("kill by id = (%d, %v), want (%d, true)", id, ok, byNum.ID())
	}
	if got := <-canceled; got != "alpha" {
		t.Fatalf("cancel fired for %q, want alpha", got)
	}
	if !r.killed(byNum) {
		t.Fatal("killed flag not set")
	}

	// Kill by request id.
	if id, ok := r.kill("beta"); !ok || id != byReq.ID() {
		t.Fatalf("kill by request id = (%d, %v), want (%d, true)", id, ok, byReq.ID())
	}
	if got := <-canceled; got != "beta" {
		t.Fatalf("cancel fired for %q, want beta", got)
	}

	// No match: unknown key, and a slot already ended.
	if _, ok := r.kill("nope"); ok {
		t.Fatal("kill matched an unknown key")
	}
	if !r.end(byNum) {
		t.Fatal("end lost the killed verdict")
	}
	if _, ok := r.kill(strconv.FormatUint(byNum.ID(), 10)); ok {
		t.Fatal("kill matched a finished query")
	}
}

func TestKilledErrorIdentity(t *testing.T) {
	err := error(&KilledError{ID: 9})
	if !errors.Is(err, ErrKilled) {
		t.Fatal("KilledError does not match ErrKilled")
	}
	if classOf(err) != "killed" {
		t.Fatalf("classOf = %q, want killed", classOf(err))
	}
	if outcomeOf(err) != "killed" {
		t.Fatalf("outcomeOf = %q, want killed", outcomeOf(err))
	}
	if !strings.Contains(err.Error(), "9") {
		t.Fatalf("Error() = %q, want the registry id", err)
	}
}

// TestServerKillQuery drives the kill path end to end at the library
// level: a slow evaluation becomes visible in ActiveQueries (with live
// fact progress), KillQuery cancels it, and the request fails with the
// typed *KilledError while the registry returns to empty.
func TestServerKillQuery(t *testing.T) {
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
		_, err := s.Query(WithRequestID(context.Background(), "victim-1"), QueryRequest{
			Query: "?- sg(u0,Y).", Strategy: "semi-naive", TimeoutMS: 60_000,
		})
		qerr <- err
	}()

	// Wait for the query to show up in the registry, running.
	var info QueryInfo
	deadline := time.Now().Add(5 * time.Second)
	for {
		if qs := s.ActiveQueries(); len(qs) == 1 && qs[0].Strategy != "" {
			info = qs[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in ActiveQueries")
		}
		time.Sleep(time.Millisecond)
	}
	if info.RequestID != "victim-1" || info.Query != "?- sg(u0,Y)." || info.Strategy != "semi-naive" {
		t.Fatalf("registry entry = %+v", info)
	}

	id, ok := s.KillQuery("victim-1")
	if !ok || id != info.ID {
		t.Fatalf("KillQuery = (%d, %v), want (%d, true)", id, ok, info.ID)
	}
	select {
	case err := <-qerr:
		var killed *KilledError
		if !errors.As(err, &killed) || killed.ID != info.ID {
			t.Fatalf("query returned %v, want *KilledError with ID %d", err, info.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("killed query did not unwind")
	}
	if qs := s.ActiveQueries(); len(qs) != 0 {
		t.Fatalf("registry not empty after kill: %+v", qs)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before)
}

// TestServerSlowLog: with a threshold of 1ns every request is slow; the
// captured record carries the request id, the resolved strategy, the
// planner ranking, and per-rule profiles — without the request asking
// for a trace.
func TestServerSlowLog(t *testing.T) {
	p := lincount.MustParseProgram(workload.SGProgram)
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(workload.Chain(10)); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Program: p, DB: db, SlowQuery: time.Nanosecond})
	defer s.Close()

	ctx := WithRequestID(context.Background(), "slow-req")
	res, err := s.Query(ctx, QueryRequest{Query: "?- sg(u0,Y).", Strategy: "semi-naive"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}

	recs := s.SlowLog()
	if len(recs) != 1 {
		t.Fatalf("slowlog has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.RequestID != "slow-req" || rec.Query != "?- sg(u0,Y)." ||
		rec.Strategy != "semi-naive" || rec.Outcome != "ok" || rec.Handler != "query" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.ID == 0 || rec.DurationUS <= 0 {
		t.Fatalf("record missing id/duration: %+v", rec)
	}
	if len(rec.Rules) == 0 {
		t.Fatal("record has no per-rule profiles")
	}
	if len(rec.Planner) == 0 {
		t.Fatal("record has no planner ranking")
	}
	if rec.DerivedFacts <= 0 || rec.AnswerTuples != len(res.Answers) {
		t.Fatalf("record work counters = %+v", rec)
	}

	// A materialized read is also captured (strategy "materialized",
	// no per-rule profiles because nothing evaluated).
	if _, err := s.Query(ctx, QueryRequest{Query: "?- sg(u0,Y)."}); err != nil {
		t.Fatal(err)
	}
	recs = s.SlowLog()
	if len(recs) != 2 || recs[0].Strategy != "materialized" {
		t.Fatalf("slowlog after materialized read = %+v", recs)
	}
	if s.slow.Total() != 2 {
		t.Fatalf("Total = %d, want 2", s.slow.Total())
	}
}

// TestRequestObservabilityZeroAlloc pins the off-path cost of the new
// machinery: registry begin/setRunning/end, the logger a nil Config.Log
// leaves, a suppressed (below-level) logger, and the slow-threshold
// comparison must all add zero allocations per request.
func TestRequestObservabilityZeroAlloc(t *testing.T) {
	r := newRegistry(4)
	nilLog := (&Config{}).withDefaults().Log
	offLog := obsv.NewLogger(io.Discard, "json", slog.LevelError)
	slowThreshold := 250 * time.Millisecond
	cancel := func() {}
	deadline := time.Now().Add(time.Second)
	start := time.Now()

	allocs := testing.AllocsPerRun(1000, func() {
		slot := r.begin("req", "?- p(X).", cancel, deadline)
		r.setRunning(slot, "materialized", 1)
		slot.Facts().Add(1)
		nilLog.LogAttrs(context.Background(), slog.LevelInfo, "ignored", slog.String("k", "v"))
		offLog.LogAttrs(context.Background(), slog.LevelDebug, "suppressed", slog.Int("n", 1))
		if slowThreshold > 0 && time.Since(start) >= slowThreshold {
			t.Fatal("unexpectedly slow")
		}
		r.end(slot)
	})
	if allocs != 0 {
		t.Fatalf("request tracking allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestNilLoggerIsNoOp: a nil Config.Log becomes a logger no level enables.
func TestNilLoggerIsNoOp(t *testing.T) {
	l := (&Config{}).withDefaults().Log
	for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if l.Enabled(context.Background(), lv) {
			t.Errorf("level %v enabled", lv)
		}
	}
	l.LogAttrs(context.Background(), slog.LevelError, "dropped", slog.Any("error", errors.New("x")))
	l.With("k", "v").WithGroup("g").Error("dropped")
}

// BenchmarkRequestObservabilityOff is the perf-guard form of the
// zero-alloc test: run with -benchmem to see 0 B/op, 0 allocs/op.
func BenchmarkRequestObservabilityOff(b *testing.B) {
	r := newRegistry(4)
	nilLog := (&Config{}).withDefaults().Log
	cancel := func() {}
	deadline := time.Now().Add(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := r.begin("req", "?- p(X).", cancel, deadline)
		r.setRunning(slot, "materialized", 1)
		slot.Facts().Add(1)
		nilLog.LogAttrs(context.Background(), slog.LevelInfo, "ignored", slog.String("k", "v"))
		r.end(slot)
	}
}
