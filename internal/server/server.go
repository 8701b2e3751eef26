// Package server implements lincountd's resident query server: a
// long-lived process that holds one loaded Program plus a Database and
// serves many concurrent prepared-query evaluations over HTTP/JSON.
//
// The design is MVCC with a single writer. Reads never lock anything:
// every request loads the current Snapshot (an epoch number plus an
// immutable Database) from an atomic pointer and evaluates against it.
// Writes funnel through one batching writer goroutine that forks the
// current snapshot copy-on-write (Database.Fork), applies a coalesced
// batch of asserts/retracts to the fork, and publishes the fork
// atomically as the next epoch — so a reader observes either all of a
// batch or none of it, never a half-applied state.
//
// Robustness is the point, not throughput:
//
//   - Admission control: a concurrency semaphore with a bounded wait
//     queue. When both are full the request is shed immediately with a
//     typed BusyError (HTTP 503) instead of queueing unboundedly.
//   - Per-request deadlines and fact budgets, inherited from the
//     context/ResourceLimitError machinery the evaluators already honor.
//   - Panic containment per request: the Eval boundary already recovers
//     evaluator panics into InternalError; the HTTP layer adds a second
//     recover so even a handler bug cannot take the process down.
//   - Retry with backoff on retryable write failures (injected faults,
//     per the degradation taxonomy), re-applying the batch to a fresh
//     fork each attempt — a failed attempt leaves no trace.
//   - Graceful drain: stop admitting, finish in-flight requests within a
//     deadline, cancel cooperatively past it, then stop the writer; zero
//     goroutines outlive Drain.
//
// Fault injection reaches the write path through two dedicated sites
// (faultinject.SiteServerApply, faultinject.SiteServerPublish) so the
// chaos suite can hammer a live server and assert snapshot isolation.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"lincount"
	"lincount/internal/faultinject"
	"lincount/internal/obsv"
	"lincount/internal/wal"
)

// Config parameterizes a Server. The zero value of every limit field
// selects a sane default; Program and DB are required.
type Config struct {
	// Program is the loaded program all queries evaluate against.
	Program *lincount.Program
	// DB is the initial database. Ownership passes to the server: the
	// caller must not write to it after New (reads would race the write
	// path's forks).
	DB *lincount.Database

	// MaxConcurrent bounds simultaneously evaluating read requests
	// (default 16).
	MaxConcurrent int
	// MaxQueue bounds read requests waiting for a concurrency slot;
	// beyond it requests are shed with BusyError (default 64).
	MaxQueue int

	// DefaultTimeout is applied to requests that carry no deadline of
	// their own (default 10s). MaxTimeout clamps requested deadlines
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxDerivedFacts is the per-request derived-fact budget when the
	// request does not set a smaller one (default 10,000,000; 0 keeps
	// the default, use -1 for unlimited).
	MaxDerivedFacts int

	// DataDir, when set, makes the server durable: writes are logged to
	// a WAL under this directory before they become visible, and New
	// recovers the directory's checkpoint+log state before serving. The
	// recovered state is applied ON TOP of DB, so when a manifest exists
	// the caller should pass a database without preloaded facts (loading
	// them again would resurrect ones later retracted). Empty means
	// in-memory only — the pre-durability behavior.
	DataDir string
	// WALSync is the WAL fsync policy (default wal.SyncAlways);
	// WALSyncInterval is the flush lag under wal.SyncInterval.
	WALSync         wal.SyncPolicy
	WALSyncInterval time.Duration
	// CheckpointBytes and CheckpointRecords are the live-segment size and
	// record-count thresholds past which a checkpoint is triggered
	// automatically (defaults 8MiB and 4096; negative disables the
	// threshold).
	CheckpointBytes   int64
	CheckpointRecords int

	// Inject, when non-nil, arms the server-side fault sites
	// (server.write, server.publish, and the wal.* sites when durable) —
	// the chaos harness's hook. Production servers leave it nil and pay
	// one pointer comparison.
	Inject *faultinject.Injector
	// EvalOptions are appended to every evaluation (chaos tests pass
	// WithFaultInjection here to perturb the read path).
	EvalOptions []lincount.Option

	// SlowQuery is the latency threshold past which a completed query is
	// captured in the slow-query log with its full diagnostic record —
	// planner ranking, per-rule profiles, degradation chain, queue wait —
	// and logged at warn level. Zero disables the slow log; requests
	// under the threshold pay one time comparison.
	SlowQuery time.Duration
	// Log receives the server's structured log lines (request outcomes,
	// writer-path events, recovery, drain). Nil disables logging: the
	// server logs to a handler that is never enabled.
	Log *slog.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 16
	}
	if out.MaxQueue < 0 {
		out.MaxQueue = 0
	} else if out.MaxQueue == 0 {
		out.MaxQueue = 64
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 10 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 60 * time.Second
	}
	if out.MaxDerivedFacts == 0 {
		out.MaxDerivedFacts = 10_000_000
	}
	if out.CheckpointBytes == 0 {
		out.CheckpointBytes = 8 << 20
	}
	if out.CheckpointRecords == 0 {
		out.CheckpointRecords = 4096
	}
	if out.Log == nil {
		out.Log = slog.New(offHandler{})
	}
	return out
}

// offHandler is the handler behind a nil Config.Log: never enabled, so a
// LogAttrs call returns before it builds a record.
type offHandler struct{}

func (offHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (offHandler) Handle(context.Context, slog.Record) error { return nil }
func (h offHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h offHandler) WithGroup(string) slog.Handler           { return h }

// Snapshot is one published epoch: an immutable database plus its
// sequence number. Readers evaluate against the snapshot they loaded at
// admission; the epoch is echoed in responses so clients can reason
// about read-your-writes.
type Snapshot struct {
	Epoch uint64
	DB    *lincount.Database
	// Mat is the epoch's incrementally maintained materialisation, kept
	// in lockstep with DB by the writer goroutine. Nil when the program
	// is outside the maintainable fragment (negation) or when the
	// initial materialisation failed — reads then evaluate per request
	// as before.
	Mat *lincount.Materialization
}

// ErrBusy is the sentinel every admission-control rejection matches:
// errors.Is(err, ErrBusy) reports the server shed the request because
// the concurrency semaphore and its wait queue (or the write queue)
// were full. Busy errors are retryable by the client after backoff.
var ErrBusy = errors.New("server: too busy")

// BusyError is the structured load-shedding error: the admission state
// at the moment the request was shed. It matches errors.Is(err, ErrBusy).
type BusyError struct {
	// InFlight and Queued are the admission gauges at shed time.
	InFlight, Queued int
	// Write reports whether the write queue (rather than the read
	// semaphore) was the full resource.
	Write bool
}

func (e *BusyError) Error() string {
	if e.Write {
		return fmt.Sprintf("server: too busy (write queue full, %d in flight)", e.InFlight)
	}
	return fmt.Sprintf("server: too busy (%d in flight, %d queued)", e.InFlight, e.Queued)
}

// Is makes errors.Is(err, ErrBusy) report true.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// ErrDraining is returned to requests that arrive after a drain began
// (or after Close). Clients should fail over to another replica.
var ErrDraining = errors.New("server: draining")

// Server is a running query server. Create with New, serve its Handler,
// stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg  Config
	snap atomic.Pointer[Snapshot]

	// Admission control: sem holds one token per evaluating request;
	// queued counts requests waiting for a token, bounded by MaxQueue.
	sem    chan struct{}
	queued atomic.Int64

	// Lifecycle: state transitions serving → draining → closed under
	// stateMu; requests take the read lock to check the state and join
	// the in-flight WaitGroup atomically with respect to Drain.
	stateMu  sync.RWMutex
	state    int
	inflight sync.WaitGroup

	// baseCtx is canceled (with cause) to force-cancel in-flight
	// requests when the drain deadline expires.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	// The single-writer path: Write requests enqueue on writes; the
	// writer goroutine coalesces, applies, publishes, and answers.
	writes     chan writeReq
	writerDone chan struct{}

	// Durability (nil/zero when Config.DataDir is empty). walW is the
	// live WAL segment writer, swapped by rotation; rotateC carries the
	// checkpointer's rotation rendezvous to the writer goroutine; ckptC
	// and ckptKick feed the checkpointer goroutine (admin calls and
	// threshold nudges); ckptStop/ckptDone bound its lifetime.
	walW        atomic.Pointer[wal.Writer]
	rotateC     chan rotateReq
	ckptC       chan ckptCall
	ckptKick    chan struct{}
	ckptStop    chan struct{}
	ckptDone    chan struct{}
	lastCkptSeq atomic.Uint64
	recovered   RecoveryInfo

	// Maintenance gauges for /v1/stats: batches applied through the
	// incremental engine and batches that fell back to base apply plus
	// re-materialisation.
	maintBatches   atomic.Int64
	maintFallbacks atomic.Int64

	// Per-request observability: reg tracks in-flight queries (GET
	// /v1/queries, DELETE /v1/queries/{id}); slow is the slow-query ring
	// behind GET /v1/debug/slowlog.
	reg  *registry
	slow *obsv.RequestLog
}

// badRequestError wraps validation failures (unparsable query or fact
// text, unknown strategy) — the client's fault, mapped to HTTP 400.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// classOf maps a request error to its metrics label (the "class" label
// of lincount_server_errors_total) — the server-side degradation
// taxonomy: shed, refused, canceled, over budget, bug, bad input, other.
func classOf(err error) string {
	var interr *lincount.InternalError
	var badReq *badRequestError
	switch {
	case errors.As(err, &badReq):
		return "bad_request"
	case errors.Is(err, ErrBusy):
		return "busy"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrKilled):
		return "killed"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, lincount.ErrResourceLimit):
		return "limit"
	case errors.As(err, &interr):
		return "internal"
	default:
		return "other"
	}
}

// fail counts err into the error metrics and returns it — every public
// entry point's single exit for failures.
func fail(err error) error {
	obsv.MServerErrors.Add(classOf(err), 1)
	return err
}

// outcomeOf maps a request's final error to the outcome label of
// lincount_request_duration_seconds.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBusy), errors.Is(err, ErrDraining):
		return "shed"
	case errors.Is(err, ErrKilled):
		return "killed"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "error"
	}
}

// New starts a server over cfg: the initial snapshot is published and
// the writer goroutine is running. With Config.DataDir set, the data
// directory's checkpoint and WAL are recovered first — the published
// snapshot already contains every replayed write, and its epoch resumes
// where the log left off — so by the time New returns no client can
// observe a pre-recovery state. The server is serving immediately;
// attach Handler to an http.Server to expose it.
func New(cfg Config) (*Server, error) {
	if cfg.Program == nil || cfg.DB == nil {
		return nil, errors.New("server: Config.Program and Config.DB are required")
	}
	c := cfg.withDefaults()
	baseCtx, baseCancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        c,
		sem:        make(chan struct{}, c.MaxConcurrent),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		writes:     make(chan writeReq, writeQueue),
		writerDone: make(chan struct{}),
		reg:        newRegistry(c.MaxConcurrent),
		slow:       obsv.NewRequestLog(slowLogSize),
	}
	epoch := uint64(0)
	if c.DataDir != "" {
		w, info, err := recoverData(&c, c.DB)
		if err != nil {
			c.Log.LogAttrs(baseCtx, slog.LevelError, "recovery failed", slog.String("dir", c.DataDir), slog.Any("error", err))
			return nil, err
		}
		c.Log.LogAttrs(baseCtx, slog.LevelInfo, "recovered data dir",
			slog.String("dir", c.DataDir),
			slog.Uint64("epoch", info.Epoch),
			slog.Uint64("checkpoint_seq", info.CheckpointSeq),
			slog.Int("segments", info.Segments),
			slog.Int("records_replayed", info.Records),
			slog.Int64("truncated_bytes", info.TruncatedBytes))
		s.walW.Store(w)
		s.recovered = info
		s.lastCkptSeq.Store(info.CheckpointSeq)
		epoch = info.Epoch
		s.rotateC = make(chan rotateReq)
		s.ckptC = make(chan ckptCall)
		s.ckptKick = make(chan struct{}, 1)
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
	}
	// Materialise the recovered state once; every subsequent epoch is
	// maintained incrementally by the writer from the same ordered op
	// stream the WAL frames. Programs outside the maintainable fragment
	// (ErrNotIncremental) — or any materialisation failure — downgrade
	// to per-request evaluation rather than failing startup, with a log
	// line that says why.
	mat := s.materialize(c.DB, epoch)
	s.snap.Store(&Snapshot{Epoch: epoch, DB: c.DB, Mat: mat})
	obsv.MServerEpoch.Set(int64(epoch))
	c.Log.LogAttrs(baseCtx, slog.LevelInfo, "server started",
		slog.Uint64("epoch", epoch),
		slog.Bool("materialized", mat != nil),
		slog.Bool("durable", c.DataDir != ""),
		slog.Int("max_concurrent", c.MaxConcurrent),
		slog.Duration("slow_query", c.SlowQuery))
	go s.writer()
	if c.DataDir != "" {
		go s.checkpointer()
	}
	return s, nil
}

// Snapshot returns the currently published epoch. The database inside is
// immutable; it is safe to evaluate against it indefinitely (later
// epochs share its storage copy-on-write).
func (s *Server) Snapshot() Snapshot { return *s.snap.Load() }
