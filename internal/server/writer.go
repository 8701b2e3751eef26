// The write path: Write enqueues a request for the single writer
// goroutine, which coalesces queued requests into one batch, applies it
// to a fork of the current snapshot, logs it to the WAL when durable,
// and publishes the fork as the next epoch.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"time"

	"lincount"
	"lincount/internal/faultinject"
	"lincount/internal/obsv"
)

// WriteRequest is one write: fact text to assert and/or retract. The
// request is applied atomically — a snapshot either contains all of its
// effects or none.
type WriteRequest struct {
	// Assert is fact text to add, e.g. "up(a,b). flat(b,c).".
	Assert string `json:"assert,omitempty"`
	// Retract is fact text to remove; absent facts are no-ops.
	Retract string `json:"retract,omitempty"`
	// TimeoutMS bounds how long the request waits for its batch to
	// publish (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WriteResponse reports the epoch that first contains the write.
type WriteResponse struct {
	Epoch     uint64 `json:"epoch"`
	Retracted int    `json:"retracted"`
}

// The single writer's fixed parameters.
const (
	// writeQueue bounds write requests waiting for the writer goroutine;
	// beyond it writes are shed with BusyError.
	writeQueue = 256
	// maxBatch bounds write requests coalesced into one epoch.
	maxBatch = 64
	// writeRetries is how many times a retryably failing batch is
	// retried before the batch's requests fail.
	writeRetries = 3
	// retryBackoff is the first retry's backoff, doubling per attempt.
	retryBackoff = time.Millisecond
)

type writeResult struct {
	epoch     uint64
	retracted int
	err       error
}

type writeReq struct {
	req  WriteRequest
	done chan writeResult
}

// Write submits one write request to the single-writer path and waits
// for its batch to publish (or fail). Shed with BusyError when the write
// queue is full. If ctx expires while the batch is in flight, Write
// returns a CanceledError but the batch may still publish — the write is
// at-most-once from the caller's perspective, exactly-once from the
// server's.
func (s *Server) Write(ctx context.Context, req WriteRequest) (resp *WriteResponse, err error) {
	if err = s.begin(); err != nil {
		return nil, fail(err)
	}
	defer s.inflight.Done()

	start := time.Now()
	obsv.MServerInFlight.Add(1)
	defer obsv.MServerInFlight.Add(-1)
	defer func() {
		obsv.MServerReqDuration.Observe("write", outcomeOf(err), time.Since(start).Seconds())
	}()

	ctx, _, stop := s.requestCtx(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	defer stop()

	wr := writeReq{req: req, done: make(chan writeResult, 1)}
	select {
	case s.writes <- wr:
	default:
		obsv.MServerShed.Add(1)
		return nil, fail(&BusyError{InFlight: len(s.writes), Write: true})
	}
	obsv.MServerRequests.Add("write", 1)
	select {
	case res := <-wr.done:
		if res.err != nil {
			return nil, fail(res.err)
		}
		return &WriteResponse{Epoch: res.epoch, Retracted: res.retracted}, nil
	case <-ctx.Done():
		return nil, fail(&lincount.CanceledError{Component: "server", Cause: context.Cause(ctx)})
	}
}

// writer is the single-writer goroutine: it owns the fork-apply-publish
// cycle, so snapshot publication is trivially serialized — and, when
// durable, it owns the WAL appends and segment swaps for the same
// reason. It exits when the writes channel is closed (Drain), after
// draining queued requests. Rotation requests are only serviced between
// batches, so a swap can never race an append (rotateC is nil, hence
// never ready, on non-durable servers).
func (s *Server) writer() {
	defer close(s.writerDone)
	for {
		var wr writeReq
		var ok bool
		select {
		case rr := <-s.rotateC:
			s.rotate(rr)
			continue
		case wr, ok = <-s.writes:
			if !ok {
				return
			}
		}
		batch := []writeReq{wr}
		// Coalesce whatever is already queued, up to the batch cap: one
		// fork + one publish amortized over every waiting request.
		for len(batch) < maxBatch {
			select {
			case more, ok := <-s.writes:
				if !ok {
					s.applyBatch(batch)
					return
				}
				batch = append(batch, more)
			default:
				goto apply
			}
		}
	apply:
		s.applyBatch(batch)
		s.maybeKickCheckpoint()
	}
}

// retryableWrite reports whether a batch failure is worth retrying:
// injected faults (the degradation taxonomy's retryable class) and
// resource-limit trips. Parse and arity errors are permanent.
func retryableWrite(err error) bool {
	return errors.Is(err, faultinject.ErrInjected) || errors.Is(err, lincount.ErrResourceLimit)
}

// errExcised ends an attempt that failed one request permanently: the
// batch restarts at once without it.
var errExcised = errors.New("server: request excised from batch")

// applyBatch applies the batch on top of the current snapshot and
// publishes the result as the next epoch. A retryable failure (injected
// fault, resource limit) discards the attempt and retries the whole
// batch with exponential backoff; a permanent failure (parse error,
// arity clash) fails only the offending request and re-applies the rest
// without backoff. Each surviving request is answered with the published
// epoch. Panics are contained per batch: every request gets an
// InternalError and the snapshot stays at the previous epoch.
func (s *Server) applyBatch(batch []writeReq) {
	failed := make([]error, len(batch))
	retracted := make([]int, len(batch))
	answered := make([]bool, len(batch))
	defer func() {
		r := recover()
		for i, wr := range batch {
			if answered[i] {
				continue
			}
			err := failed[i]
			if err == nil {
				// Only reachable when the apply loop panicked before
				// this request got a verdict.
				err = &lincount.InternalError{Value: r, Stack: string(debug.Stack())}
			}
			wr.done <- writeResult{err: err}
		}
	}()

	cur := s.snap.Load()
	for attempt := 0; ; {
		next, err := s.applyAttempt(cur, batch, failed, retracted)
		if errors.Is(err, errExcised) {
			continue
		}
		if err != nil && retryableWrite(err) && attempt < writeRetries {
			attempt++
			obsv.MServerWriteRetries.Add(1)
			s.cfg.Log.LogAttrs(s.baseCtx, slog.LevelWarn, "write batch retry",
				slog.Uint64("epoch", cur.Epoch+1),
				slog.Int("attempt", attempt),
				slog.Any("error", err))
			time.Sleep(retryBackoff << (attempt - 1))
			continue
		}
		if err != nil {
			s.cfg.Log.LogAttrs(s.baseCtx, slog.LevelError, "write batch failed",
				slog.Uint64("epoch", cur.Epoch+1),
				slog.Int("attempts", attempt+1),
				slog.Any("error", err))
			for i := range batch {
				if failed[i] == nil {
					failed[i] = err
				}
			}
			return
		}
		if next == nil {
			return // nothing survived; do not publish an empty epoch
		}

		s.snap.Store(next)
		obsv.MServerEpoch.Set(int64(next.Epoch))
		obsv.MServerWriteBatches.Add(1)
		obsv.MServerWriteBatchOps.Observe(float64(len(batch)))
		live := 0
		for i, wr := range batch {
			if failed[i] == nil {
				live++
				answered[i] = true
				wr.done <- writeResult{epoch: next.Epoch, retracted: retracted[i]}
			}
		}
		s.cfg.Log.LogAttrs(s.baseCtx, slog.LevelDebug, "batch applied",
			slog.Uint64("epoch", next.Epoch),
			slog.Int("requests", len(batch)),
			slog.Int("live", live),
			slog.Bool("maintained", next.Mat != nil))
		return
	}
}

// batchOps frames the live requests of a batch as one ordered op stream
// — each request's assert before its retract — and maps each op back to
// its request's batch index. It is the batch's one framing: the apply
// consumes the slice, the WAL logs that same slice, and recovery replays
// it through the same Database.Apply.
func batchOps(batch []writeReq, failed []error) (ops []lincount.WriteOp, opReq []int) {
	for i, wr := range batch {
		if failed[i] != nil {
			continue
		}
		if wr.req.Assert != "" {
			ops = append(ops, lincount.WriteOp{Text: wr.req.Assert})
			opReq = append(opReq, i)
		}
		if wr.req.Retract != "" {
			ops = append(ops, lincount.WriteOp{Retract: true, Text: wr.req.Retract})
			opReq = append(opReq, i)
		}
	}
	return ops, opReq
}

// applyAttempt runs one attempt at the batch on top of cur: apply the
// live requests' ops, pass the publish fault site, append the WAL
// record. It returns the snapshot to publish (nil when no request is
// left), errExcised after failing the request whose op the batch
// rejected, or the error that failed the attempt.
func (s *Server) applyAttempt(cur *Snapshot, batch []writeReq, failed []error, retracted []int) (*Snapshot, error) {
	// The write fault site fires once per live request per attempt,
	// before any application path runs, so the chaos schedules exercise
	// maintained and unmaintained servers identically.
	live := 0
	for i := range batch {
		if failed[i] != nil {
			continue
		}
		live++
		if err := s.cfg.Inject.Hit(faultinject.SiteServerApply); err != nil {
			return nil, err
		}
	}
	if live == 0 {
		return nil, nil
	}

	ops, opReq := batchOps(batch, failed)
	db, mat, info, err := s.applyOps(cur, ops)
	var we *lincount.WriteError
	if errors.As(err, &we) {
		failed[opReq[we.Index]] = &badRequestError{we.Err}
		return nil, errExcised
	}
	if err != nil {
		return nil, err
	}
	clear(retracted)
	for k, n := range info.RetractedPerOp {
		retracted[opReq[k]] += n
	}

	// The batch applied cleanly; the publish site is the last chance for
	// the chaos harness to object before readers can observe the new
	// epoch.
	if err := s.cfg.Inject.Hit(faultinject.SiteServerPublish); err != nil {
		return nil, err
	}
	// Durable before visible before acked: the batch's WAL record must be
	// on the log before the snapshot is stored. A failed append rolls its
	// partial frame back, so an injected fault retries the whole attempt
	// cleanly; a real I/O failure fails the batch — the epoch is never
	// published without its durability.
	if err := s.walAppend(cur.Epoch+1, ops); err != nil {
		if errors.Is(err, faultinject.ErrInjected) {
			return nil, err
		}
		return nil, fmt.Errorf("server: write not durable: %w", err)
	}
	return &Snapshot{Epoch: cur.Epoch + 1, DB: db, Mat: mat}, nil
}

// applyOps applies ops on top of cur: through incremental maintenance
// when the snapshot carries a materialisation, through Database.Apply on
// a fork otherwise. Both apply the batch with one semantics (see
// Database.Apply) and reject an op with a *WriteError. Any other
// maintenance failure but an injected fault (internal invariant,
// resource limit, cancellation) falls back to Database.Apply and a
// from-scratch materialisation; if even that fails, maintenance stays
// off for subsequent epochs (Mat nil) — reads degrade to per-request
// evaluation, writes keep working.
func (s *Server) applyOps(cur *Snapshot, ops []lincount.WriteOp) (*lincount.Database, *lincount.Materialization, *lincount.ApplyInfo, error) {
	if cur.Mat != nil {
		m, info, err := cur.Mat.Apply(s.baseCtx, ops)
		if err == nil {
			s.maintBatches.Add(1)
			obsv.MServerMaintBatches.Add(1)
			return m.Database(), m, info, nil
		}
		var we *lincount.WriteError
		if errors.As(err, &we) || errors.Is(err, faultinject.ErrInjected) {
			return nil, nil, nil, err
		}
		s.maintFallbacks.Add(1)
		obsv.MServerMaintFallbacks.Add(1)
		s.cfg.Log.LogAttrs(s.baseCtx, slog.LevelWarn, "maintenance fallback",
			slog.Uint64("epoch", cur.Epoch+1),
			slog.Any("error", err))
	}
	fork := cur.DB.Fork()
	info, err := fork.Apply(ops)
	if err != nil {
		return nil, nil, nil, err
	}
	var mat *lincount.Materialization
	if cur.Mat != nil {
		mat = s.materialize(fork, cur.Epoch+1)
	}
	return fork, mat, info, nil
}

// materialize builds db's materialisation for epoch, or logs why it
// cannot and returns nil, leaving the epoch to per-request evaluation: a
// program outside the maintainable fragment at info level, any other
// failure at warn level.
func (s *Server) materialize(db *lincount.Database, epoch uint64) *lincount.Materialization {
	m, err := s.cfg.Program.Materialize(s.baseCtx, db)
	if err == nil {
		return m
	}
	level := slog.LevelWarn
	if errors.Is(err, lincount.ErrNotIncremental) {
		level = slog.LevelInfo
	}
	s.cfg.Log.LogAttrs(s.baseCtx, level, "not materialized",
		slog.Uint64("epoch", epoch),
		slog.Any("error", err))
	return nil
}
