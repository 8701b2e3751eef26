// Admission control and lifecycle: the in-flight registration every
// request begins with, the bounded concurrency semaphore, the request
// context (deadline, drain cancellation, request id), and the graceful
// drain that stops it all.
package server

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"lincount"
	"lincount/internal/obsv"
)

// server lifecycle states, guarded by stateMu.
const (
	stateServing = iota
	stateDraining
	stateClosed
)

// State returns the lifecycle state as a readiness string: "serving",
// "draining" or "closed".
func (s *Server) State() string {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	switch s.state {
	case stateServing:
		return "serving"
	case stateDraining:
		return "draining"
	default:
		return "closed"
	}
}

// begin registers a request as in-flight, failing with ErrDraining once
// a drain has begun. The read lock orders the WaitGroup Add against
// Drain's state flip, so Drain's Wait always covers every admitted
// request and never races an Add.
func (s *Server) begin() error {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.state != stateServing {
		return ErrDraining
	}
	s.inflight.Add(1)
	return nil
}

// acquire takes a concurrency slot, waiting in the bounded queue when
// the semaphore is full and shedding with BusyError when the queue is
// full too. The wait respects ctx, so a queued request's deadline keeps
// counting while it waits.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	for {
		q := s.queued.Load()
		if q >= int64(s.cfg.MaxQueue) {
			obsv.MServerShed.Add(1)
			return &BusyError{InFlight: len(s.sem), Queued: int(q)}
		}
		if s.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	obsv.MServerQueued.Add(1)
	defer func() {
		s.queued.Add(-1)
		obsv.MServerQueued.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &lincount.CanceledError{Component: "server", Cause: context.Cause(ctx)}
	}
}

func (s *Server) release() { <-s.sem }

// requestCtx derives the evaluation context for one request: the
// caller's context, the request deadline (clamped to MaxTimeout,
// defaulted to DefaultTimeout), and the server's base context so a
// drain-deadline force-cancel reaches every in-flight evaluation. The
// middle return is the context's own cancel func — the registry stores
// it as the kill lever for DELETE /v1/queries/{id}, avoiding a wrapper
// context per request. The last return (stop) must be deferred.
func (s *Server) requestCtx(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc, func()) {
	if timeout <= 0 || timeout > s.cfg.MaxTimeout {
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		} else {
			timeout = s.cfg.DefaultTimeout
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	return ctx, cancel, func() {
		stopAfter()
		cancel()
	}
}

// RequestID request-scoped correlation: the HTTP layer stores each
// request's id in the context (WithRequestID); the server reads it back
// for the registry and the slow-query log, so a record found in either
// can be matched to the access-log line and the client's response
// header.
type reqIDKey struct{}

// WithRequestID returns a context carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestID returns the context's request id, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// Drain gracefully stops the server: flip to draining (new requests get
// ErrDraining, /readyz goes unready), wait for in-flight requests to
// finish, and past ctx's deadline cancel them cooperatively and wait for
// the (prompt) unwind. The writer goroutine drains its queue and exits.
// Drain is idempotent; concurrent calls all block until the first
// completes. It returns an error only when the deadline forced
// cancellation — the server is fully stopped either way, with no
// goroutines left behind.
func (s *Server) Drain(ctx context.Context) error {
	s.stateMu.Lock()
	if s.state != stateServing {
		s.stateMu.Unlock()
		<-s.writerDone // wait for the first drainer to finish the job
		return nil
	}
	s.state = stateDraining
	s.stateMu.Unlock()
	obsv.MServerDrains.Add(1)
	s.cfg.Log.LogAttrs(ctx, slog.LevelInfo, "drain started", slog.Int("active_queries", s.reg.active()))

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	forced := false
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel every in-flight evaluation through the base
		// context. Cooperative cancellation is threaded through every
		// strategy, so the unwind is prompt.
		forced = true
		s.baseCancel(ErrDraining)
		<-done
	}

	// No producers remain (begin() rejects new requests, and every
	// admitted one has returned), so closing the write queue is safe;
	// the writer finishes whatever is still queued and exits. An admin
	// checkpoint registers as in-flight, so by this point the
	// checkpointer is idle or mid-auto-checkpoint; stopping it after the
	// writer means a rotation it is still waiting on aborts via
	// writerDone instead of deadlocking, and a snapshot save it is mid-
	// way through finishes against an immutable database. The WAL is
	// sealed last, once nothing can append.
	close(s.writes)
	<-s.writerDone
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	if w := s.walW.Load(); w != nil {
		_ = w.Sync() // best effort: every acked record is already synced per policy
		w.Close()
	}

	s.stateMu.Lock()
	s.state = stateClosed
	s.stateMu.Unlock()
	s.baseCancel(nil) // release the context subtree either way
	s.cfg.Log.LogAttrs(ctx, slog.LevelInfo, "drain complete", slog.Bool("forced", forced))
	if forced {
		obsv.MServerDrainCanceled.Add(1)
		return errors.New("server: drain deadline expired; in-flight requests were canceled")
	}
	return nil
}

// Close stops the server immediately: in-flight requests are canceled
// right away and the writer exits after its queue drains. Equivalent to
// Drain with an already-expired deadline.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx) // forced cancellation is the expected path for Close
	return nil
}
