package obsv

// The query server's two logs: structured event lines through log/slog
// (NewLogger), and RequestLog, a bounded ring of completed-request
// diagnostic records — the slow-query log. Records are plain data
// (JSON-ready field types only) so the obsv layer stays free of engine
// imports; the server fills them from its own result types.

import (
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// NewLogger returns a logger that writes one line per event to w, as a
// JSON object ("json", and anything unrecognised) or as logfmt ("text"),
// dropping events below level. Every line starts with ts (UTC, to the
// millisecond), a lower-case level and msg; durations render as
// fractional seconds.
func NewLogger(w io.Writer, format string, level slog.Leveler) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: replaceLogAttr}
	if format == "text" {
		return slog.New(slog.NewTextHandler(w, opts))
	}
	return slog.New(slog.NewJSONHandler(w, opts))
}

// logTimeFormat is RFC 3339 with millisecond precision, always UTC.
const logTimeFormat = "2006-01-02T15:04:05.000Z"

func replaceLogAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 {
		switch a.Key {
		case slog.TimeKey:
			return slog.String("ts", a.Value.Time().UTC().Format(logTimeFormat))
		case slog.LevelKey:
			return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
		}
	}
	if a.Value.Kind() == slog.KindDuration {
		return slog.Float64(a.Key, a.Value.Duration().Seconds())
	}
	return a
}

// PlannerRank is one entry of the planner ranking captured in a
// RequestRecord: a candidate strategy, its cost estimate, and the
// reasoning — what the Auto planner saw when the request was planned.
type PlannerRank struct {
	Strategy string  `json:"strategy"`
	Cost     float64 `json:"cost"`
	Reason   string  `json:"reason,omitempty"`
}

// RuleRecord is one rule's profile inside a RequestRecord: where the
// evaluation's time and inferences went, per rule.
type RuleRecord struct {
	Rule         string `json:"rule"`
	Runs         int    `json:"runs"`
	Inferences   int64  `json:"inferences"`
	DerivedFacts int64  `json:"derived_facts"`
	DurationUS   int64  `json:"duration_us"`
}

// AttemptRecord is one failed Auto-chain attempt inside a RequestRecord
// — the degradation chain a slow request walked before answering.
type AttemptRecord struct {
	Strategy   string `json:"strategy"`
	Err        string `json:"error,omitempty"`
	DurationUS int64  `json:"duration_us"`
}

// RequestRecord is the full diagnostic record of one completed request:
// identity (registry id + request id), what ran (query, strategy,
// epoch), where the time went (queue wait vs evaluation, per-rule
// profiles), and how planning resolved (ranking, degradation chain,
// plan-cache hit). The slow-query log stores these; GET
// /v1/debug/slowlog serves them verbatim.
type RequestRecord struct {
	ID        uint64 `json:"id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	Handler   string `json:"handler"`
	Query     string `json:"query,omitempty"`
	// Strategy is the concrete strategy that answered — "materialized"
	// for reads served from the maintained materialisation, an engine
	// strategy name for requests that evaluated.
	Strategy string    `json:"strategy,omitempty"`
	Epoch    uint64    `json:"epoch"`
	Start    time.Time `json:"start"`
	// DurationUS is end-to-end (queue wait included); QueueWaitUS is the
	// admission-queue share of it.
	DurationUS  int64  `json:"duration_us"`
	QueueWaitUS int64  `json:"queue_wait_us"`
	Outcome     string `json:"outcome"`
	Err         string `json:"error,omitempty"`

	PlanCacheHit bool            `json:"plan_cache_hit,omitempty"`
	Planner      []PlannerRank   `json:"planner,omitempty"`
	Rules        []RuleRecord    `json:"rules,omitempty"`
	Degraded     []AttemptRecord `json:"degraded,omitempty"`

	DerivedFacts int64 `json:"derived_facts,omitempty"`
	AnswerTuples int   `json:"answer_tuples,omitempty"`
}

// RequestLog is a fixed-capacity ring of RequestRecords, newest
// overwriting oldest. A nil *RequestLog is a valid disabled log (Add is
// a no-op after one pointer comparison). Safe for concurrent use.
type RequestLog struct {
	mu    sync.Mutex
	buf   []RequestRecord
	next  int
	n     int
	total uint64
}

// NewRequestLog returns a ring holding the last capacity records
// (capacity < 1 is treated as 1).
func NewRequestLog(capacity int) *RequestLog {
	if capacity < 1 {
		capacity = 1
	}
	return &RequestLog{buf: make([]RequestRecord, capacity)}
}

// Add appends one record, evicting the oldest at capacity.
func (l *RequestLog) Add(r RequestRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.next] = r
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.total++
	l.mu.Unlock()
}

// Snapshot returns the retained records, newest first.
func (l *RequestLog) Snapshot() []RequestRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RequestRecord, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// Total returns how many records were ever added (including evicted
// ones) — the monotonic slowlog counter.
func (l *RequestLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
