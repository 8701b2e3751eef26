// The read path: Query evaluates one request against the snapshot
// current at admission, served from the maintained materialisation when
// it can be; the slow-query log and the active-query registry accessors
// sit beside it.
package server

import (
	"context"
	"log/slog"
	"time"

	"lincount"
	"lincount/internal/obsv"
)

// slowLogSize bounds the slow-query ring.
const slowLogSize = 256

// QueryRequest is one read: a query evaluated against the snapshot
// current at admission time.
type QueryRequest struct {
	// Query is the goal text, e.g. "?- sg(a,X).".
	Query string `json:"query"`
	// Strategy names the evaluation strategy ("" = auto).
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMS bounds the request (0 = server default; clamped to the
	// server max).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxFacts bounds derived facts for this request (0 = server
	// default; requests can lower the budget, never raise it past the
	// server's).
	MaxFacts int `json:"max_facts,omitempty"`
	// Trace records a structured trace of this evaluation and publishes
	// it at /trace.json.
	Trace bool `json:"trace,omitempty"`
}

// QueryStats is the response's work summary (a subset of lincount.Stats).
type QueryStats struct {
	Inferences   int64 `json:"inferences"`
	DerivedFacts int64 `json:"derived_facts"`
	Probes       int64 `json:"probes"`
	Iterations   int   `json:"iterations"`
	AnswerTuples int   `json:"answer_tuples,omitempty"`
	DurationUS   int64 `json:"duration_us"`
}

// QueryResponse is one read's answer set plus provenance: the epoch it
// was served from and the concrete strategy that produced it.
type QueryResponse struct {
	Answers      [][]string `json:"answers"`
	Epoch        uint64     `json:"epoch"`
	Strategy     string     `json:"strategy"`
	PlanCacheHit bool       `json:"plan_cache_hit"`
	Degraded     int        `json:"degraded,omitempty"`
	Stats        QueryStats `json:"stats"`
}

// Query evaluates one read request against the current snapshot. It
// applies admission control, the request deadline and fact budget, and
// returns typed errors: BusyError (shed), ErrDraining, CanceledError,
// ResourceLimitError, or the evaluation's own error.
func (s *Server) Query(ctx context.Context, req QueryRequest) (resp *QueryResponse, err error) {
	if err = s.begin(); err != nil {
		return nil, fail(err)
	}
	defer s.inflight.Done()

	start := time.Now()
	obsv.MServerInFlight.Add(1)
	defer obsv.MServerInFlight.Add(-1)
	defer func() {
		obsv.MServerReqDuration.Observe("query", outcomeOf(err), time.Since(start).Seconds())
	}()

	ctx, cancel, stop := s.requestCtx(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	defer stop()
	if err = s.acquire(ctx); err != nil {
		return nil, fail(err)
	}
	defer s.release()
	queueWait := time.Since(start)
	obsv.MServerQueueWait.Observe(queueWait.Seconds())

	// Register the admitted query in the active-query registry. The slot
	// holds the request context's own cancel func, so DELETE
	// /v1/queries/{id} stops the evaluation without a wrapper context;
	// registering after admission keeps the fixed slot pool (sized by
	// MaxConcurrent) from ever running dry.
	reqID := RequestID(ctx)
	deadline, _ := ctx.Deadline()
	slot := s.reg.begin(reqID, req.Query, cancel, deadline)
	defer s.reg.end(slot)

	// Auto reads on a maintained server are served straight from the
	// materialisation: a scan or index probe over the already-derived
	// relations, no fixpoint. Explicit strategies and traced requests
	// still evaluate — they are asking for a specific computation.
	if snap := s.snap.Load(); snap.Mat != nil && !req.Trace &&
		(req.Strategy == "" || req.Strategy == "auto") {
		s.reg.setRunning(slot, "materialized", snap.Epoch)
		rows, merr := snap.Mat.Answers(req.Query)
		if merr != nil {
			return nil, fail(&badRequestError{merr})
		}
		obsv.MServerRequests.Add("query", 1)
		resp = &QueryResponse{
			Answers:  rows,
			Epoch:    snap.Epoch,
			Strategy: "materialized",
			Stats: QueryStats{
				DerivedFacts: snap.Mat.DerivedFacts(),
				AnswerTuples: len(rows),
				DurationUS:   time.Since(start).Microseconds(),
			},
		}
		if s.cfg.SlowQuery > 0 && time.Since(start) >= s.cfg.SlowQuery {
			s.recordSlow(slot, reqID, req, snap, "materialized", start, queueWait, nil, nil, len(rows))
		}
		return resp, nil
	}

	strategy := lincount.Auto
	if req.Strategy != "" && req.Strategy != "auto" {
		st, perr := lincount.ParseStrategy(req.Strategy)
		if perr != nil {
			return nil, fail(&badRequestError{perr})
		}
		strategy = st
	}
	pq, perr := lincount.Prepare(s.cfg.Program, req.Query, strategy)
	if perr != nil {
		return nil, fail(&badRequestError{perr})
	}

	maxFacts := s.cfg.MaxDerivedFacts
	if req.MaxFacts > 0 && (maxFacts < 0 || req.MaxFacts < maxFacts) {
		maxFacts = req.MaxFacts
	}
	opts := append([]lincount.Option{}, s.cfg.EvalOptions...)
	if maxFacts > 0 {
		opts = append(opts, lincount.WithMaxDerivedFacts(maxFacts))
	}
	var tracer *lincount.Tracer
	if req.Trace {
		tracer = lincount.NewTracer()
		opts = append(opts, lincount.WithTracer(tracer))
	} else if s.cfg.SlowQuery > 0 {
		// Profile every untraced evaluation so a slow one can be
		// attributed rule by rule: per-rule clock reads, no event buffer.
		opts = append(opts, lincount.WithRuleProfile())
	}
	if slot != nil {
		// Mirror derived-fact progress into the slot for GET /v1/queries.
		opts = append(opts, lincount.WithFactProgress(slot.Facts()))
	}

	snap := s.snap.Load()
	obsv.MServerRequests.Add("query", 1)
	s.reg.setRunning(slot, strategy.String(), snap.Epoch)
	res, eerr := pq.EvalContext(ctx, snap.DB, opts...)
	if eerr != nil {
		// An operator kill surfaces as a cancellation; convert it to its
		// typed error so clients can tell it from their own deadline.
		if s.reg.killed(slot) {
			eerr = &KilledError{ID: slot.ID()}
		}
		if s.cfg.SlowQuery > 0 && time.Since(start) >= s.cfg.SlowQuery {
			s.recordSlow(slot, reqID, req, snap, strategy.String(), start, queueWait, nil, eerr, 0)
		}
		return nil, fail(eerr)
	}
	if tracer != nil {
		obsv.SetLastTrace(tracer)
	}
	resp = &QueryResponse{
		Answers:      res.Answers,
		Epoch:        snap.Epoch,
		Strategy:     res.Strategy.String(),
		PlanCacheHit: res.PlanCacheHit,
		Degraded:     len(res.Degraded),
		Stats: QueryStats{
			Inferences:   res.Stats.Inferences,
			DerivedFacts: res.Stats.DerivedFacts,
			Probes:       res.Stats.Probes,
			Iterations:   res.Stats.Iterations,
			DurationUS:   res.Stats.Duration.Microseconds(),
		},
	}
	if s.cfg.SlowQuery > 0 && time.Since(start) >= s.cfg.SlowQuery {
		s.recordSlow(slot, reqID, req, snap, res.Strategy.String(), start, queueWait, res, nil, len(res.Answers))
	}
	return resp, nil
}

// recordSlow captures the full diagnostic record of a request that
// crossed Config.SlowQuery: identity, timing split, planner ranking,
// per-rule profiles and the degradation chain. Everything beyond the
// threshold comparison — including the planner ranking — is computed
// only here, on the slow path.
func (s *Server) recordSlow(slot *qslot, reqID string, req QueryRequest, snap *Snapshot,
	strategy string, start time.Time, queueWait time.Duration, res *lincount.Result, evalErr error, answers int) {
	dur := time.Since(start)
	rec := obsv.RequestRecord{
		ID:          slot.ID(),
		RequestID:   reqID,
		Handler:     "query",
		Query:       req.Query,
		Strategy:    strategy,
		Epoch:       snap.Epoch,
		Start:       start,
		DurationUS:  dur.Microseconds(),
		QueueWaitUS: queueWait.Microseconds(),
		Outcome:     outcomeOf(evalErr),
	}
	if evalErr != nil {
		rec.Err = evalErr.Error()
	}
	if res != nil {
		rec.PlanCacheHit = res.PlanCacheHit
		rec.DerivedFacts = res.Stats.DerivedFacts
		rec.AnswerTuples = len(res.Answers)
		for _, rp := range res.RuleProfile {
			rec.Rules = append(rec.Rules, obsv.RuleRecord{
				Rule:         rp.Rule,
				Runs:         rp.Runs,
				Inferences:   rp.Inferences,
				DerivedFacts: rp.DerivedFacts,
				DurationUS:   rp.Duration.Microseconds(),
			})
		}
		for _, a := range res.Degraded {
			rec.Degraded = append(rec.Degraded, obsv.AttemptRecord{
				Strategy:   a.Strategy.String(),
				Err:        a.Err,
				DurationUS: a.Duration.Microseconds(),
			})
		}
	} else {
		rec.AnswerTuples = answers
	}
	if choices, cerr := lincount.PlannerChoices(s.cfg.Program, snap.DB, req.Query); cerr == nil {
		for _, c := range choices {
			rec.Planner = append(rec.Planner, obsv.PlannerRank{
				Strategy: c.Strategy.String(),
				Cost:     c.Cost,
				Reason:   c.Reason,
			})
		}
	}
	s.slow.Add(rec)
	obsv.MServerSlowQueries.Add(1)
	s.cfg.Log.LogAttrs(s.baseCtx, slog.LevelWarn, "slow query",
		slog.Uint64("id", rec.ID),
		slog.String("request_id", reqID),
		slog.String("query", req.Query),
		slog.String("strategy", strategy),
		slog.String("outcome", rec.Outcome),
		slog.Duration("duration", dur),
		slog.Duration("queue_wait", queueWait),
		slog.Uint64("epoch", snap.Epoch))
}

// ActiveQueries returns the in-flight queries, oldest first — the data
// behind GET /v1/queries.
func (s *Server) ActiveQueries() []QueryInfo { return s.reg.snapshot(time.Now()) }

// KillQuery cancels the in-flight query whose registry id (decimal) or
// request id equals key, returning the registry id of the query it
// found. The evaluation observes the cancellation at its next
// cooperative check and its request fails with a *KilledError.
func (s *Server) KillQuery(key string) (uint64, bool) {
	id, ok := s.reg.kill(key)
	if ok {
		obsv.MServerQueriesKilled.Add(1)
		s.cfg.Log.LogAttrs(s.baseCtx, slog.LevelInfo, "query killed", slog.Uint64("id", id), slog.String("key", key))
	}
	return id, ok
}

// SlowLog returns the retained slow-query records, newest first — the
// data behind GET /v1/debug/slowlog.
func (s *Server) SlowLog() []obsv.RequestRecord { return s.slow.Snapshot() }
