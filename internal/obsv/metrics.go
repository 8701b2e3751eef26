package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The metrics registry: counters, gauges and histograms rendered in the
// Prometheus text exposition format by WritePrometheus. No third-party
// client library — the text format is a few lines of fmt.

// metric is what every instrument renders for the exposition endpoint.
type metric interface {
	name() string
	help() string
	kind() string // "counter", "gauge", "histogram"
	expose(w io.Writer)
}

// Registry holds metrics in registration order. Use NewRegistry for
// tests; package-level evaluation metrics live in Default.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

// Default is the process-wide registry the evaluation facade records
// into and the /metrics endpoint serves.
var Default = NewRegistry()

func (r *Registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name()] {
		panic("obsv: duplicate metric " + m.name())
	}
	r.names[m.name()] = true
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name(), m.help(), m.name(), m.kind())
		m.expose(w)
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	n, h string
	v    atomic.Int64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{n: name, h: help}
	r.add(c)
	return c
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) name() string { return c.n }
func (c *Counter) help() string { return c.h }
func (c *Counter) kind() string { return "counter" }
func (c *Counter) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.n, c.v.Load())
}

// Gauge is a settable integer metric.
type Gauge struct {
	n, h string
	v    atomic.Int64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{n: name, h: help}
	r.add(g)
	return g
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (either sign), for gauges tracking a
// resident count via deltas.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) name() string { return g.n }
func (g *Gauge) help() string { return g.h }
func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.n, g.v.Load())
}

// LabeledCounter is a family of counters keyed by one label (e.g. the
// evaluation strategy). A label value's counter is created on its first
// Add; after that an Add is a lock-free map load and an atomic add.
type LabeledCounter struct {
	n, h, label string
	m           sync.Map // label value → *atomic.Int64
}

// NewLabeledCounter registers a counter family with one label dimension.
func (r *Registry) NewLabeledCounter(name, help, label string) *LabeledCounter {
	c := &LabeledCounter{n: name, h: help, label: label}
	r.add(c)
	return c
}

// Add increments the counter for the given label value.
func (c *LabeledCounter) Add(labelValue string, d int64) {
	v, ok := c.m.Load(labelValue)
	if !ok {
		v, _ = c.m.LoadOrStore(labelValue, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(d)
}

// Value returns the count for one label value.
func (c *LabeledCounter) Value(labelValue string) int64 {
	if v, ok := c.m.Load(labelValue); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

func (c *LabeledCounter) name() string { return c.n }
func (c *LabeledCounter) help() string { return c.h }
func (c *LabeledCounter) kind() string { return "counter" }
func (c *LabeledCounter) expose(w io.Writer) {
	type kv struct {
		k string
		v int64
	}
	var rows []kv
	c.m.Range(func(k, v any) bool {
		rows = append(rows, kv{k.(string), v.(*atomic.Int64).Load()})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	for _, r := range rows {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", c.n, c.label, r.k, r.v)
	}
}

// Histogram is a fixed-bucket cumulative histogram of float64
// observations.
type Histogram struct {
	n, h    string
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	mu      sync.Mutex
	counts  []uint64 // len(bounds)+1, last is the +Inf bucket
	sum     float64
	samples uint64
}

// NewHistogram registers a histogram with the given ascending bucket
// upper bounds.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{n: name, h: help, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.add(h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

func (h *Histogram) name() string { return h.n }
func (h *Histogram) help() string { return h.h }
func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) expose(w io.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.n, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.n, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.n, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", h.n, h.samples)
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// LabeledHistogram is a family of histograms keyed by two labels (e.g.
// handler × outcome). Series are created on first observation; Observe
// on an existing series takes the family mutex and allocates nothing
// (the [2]string map key lives on the stack).
type LabeledHistogram struct {
	n, h   string
	labels [2]string
	bounds []float64
	mu     sync.Mutex
	series map[[2]string]*histSeries
}

type histSeries struct {
	counts  []uint64 // len(bounds)+1, last is the +Inf bucket
	sum     float64
	samples uint64
}

// NewLabeledHistogram registers a histogram family with two label
// dimensions and the given ascending bucket upper bounds.
func (r *Registry) NewLabeledHistogram(name, help string, labels [2]string, bounds []float64) *LabeledHistogram {
	h := &LabeledHistogram{n: name, h: help, labels: labels, bounds: bounds,
		series: make(map[[2]string]*histSeries)}
	r.add(h)
	return h
}

// Observe records one sample for the (v1, v2) label pair.
func (h *LabeledHistogram) Observe(v1, v2 string, v float64) {
	h.mu.Lock()
	s := h.series[[2]string{v1, v2}]
	if s == nil {
		s = &histSeries{counts: make([]uint64, len(h.bounds)+1)}
		h.series[[2]string{v1, v2}] = s
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s.counts[i]++
	s.sum += v
	s.samples++
	h.mu.Unlock()
}

// Count returns the number of samples for one label pair.
func (h *LabeledHistogram) Count(v1, v2 string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.series[[2]string{v1, v2}]; s != nil {
		return s.samples
	}
	return 0
}

func (h *LabeledHistogram) name() string { return h.n }
func (h *LabeledHistogram) help() string { return h.h }
func (h *LabeledHistogram) kind() string { return "histogram" }
func (h *LabeledHistogram) expose(w io.Writer) {
	h.mu.Lock()
	keys := make([][2]string, 0, len(h.series))
	for k := range h.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		s := h.series[k]
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += s.counts[i]
			fmt.Fprintf(w, "%s_bucket{%s=%q,%s=%q,le=%q} %d\n",
				h.n, h.labels[0], k[0], h.labels[1], k[1], formatBound(b), cum)
		}
		cum += s.counts[len(h.bounds)]
		fmt.Fprintf(w, "%s_bucket{%s=%q,%s=%q,le=\"+Inf\"} %d\n",
			h.n, h.labels[0], k[0], h.labels[1], k[1], cum)
		fmt.Fprintf(w, "%s_sum{%s=%q,%s=%q} %g\n", h.n, h.labels[0], k[0], h.labels[1], k[1], s.sum)
		fmt.Fprintf(w, "%s_count{%s=%q,%s=%q} %d\n", h.n, h.labels[0], k[0], h.labels[1], k[1], s.samples)
	}
	h.mu.Unlock()
}

// The canonical evaluation metrics, recorded once per Eval by the public
// facade — coarse enough that an evaluation's hot loops never touch an
// atomic, complete enough to keep the paper's comparative quantities
// (inferences, probes, counting-set size) trending on a dashboard.
var (
	MEvaluations = Default.NewLabeledCounter("lincount_evaluations_total",
		"Completed evaluations by concrete strategy.", "strategy")
	MEvalErrors = Default.NewLabeledCounter("lincount_eval_errors_total",
		"Failed evaluations by error class (limit, canceled, internal, other).", "class")
	MInferences = Default.NewCounter("lincount_inferences_total",
		"Successful rule instantiations across all evaluations (including rederivations).")
	MProbes = Default.NewCounter("lincount_probes_total",
		"Index probes and scans across all evaluations.")
	MDerivedFacts = Default.NewCounter("lincount_derived_facts_total",
		"Distinct derived tuples across all evaluations.")
	MAnswerTuples = Default.NewCounter("lincount_answer_tuples_total",
		"Distinct answer-predicate tuples across all evaluations.")
	MArenaValues = Default.NewCounter("lincount_arena_values_total",
		"Term values appended to columnar storage arenas (arena growth).")
	MCountingSetLast = Default.NewGauge("lincount_counting_set_size",
		"Counting-set size (nodes) of the most recent counting evaluation.")
	MCountingSet = Default.NewHistogram("lincount_counting_set_nodes",
		"Distribution of counting-set sizes across counting evaluations.",
		[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536})
	MDegradations = Default.NewCounter("lincount_degradation_attempts_total",
		"Failed Auto-chain strategy attempts that fell back to the next strategy.")
	MFaultHits = Default.NewCounter("lincount_fault_injection_hits_total",
		"Injected faults fired by the chaos harness.")
	MEvalDuration = Default.NewHistogram("lincount_eval_duration_seconds",
		"Wall-clock evaluation time, including rewriting.",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60})
	MPlanCacheHits = Default.NewCounter("lincount_plan_cache_hits_total",
		"Compiled-plan lookups served from a program's plan cache.")
	MPlanCacheMisses = Default.NewCounter("lincount_plan_cache_misses_total",
		"Compiled-plan lookups that had to run the compilation pipeline.")
	MPlanCacheEntries = Default.NewGauge("lincount_plan_cache_entries",
		"Compiled plans inserted minus evicted across all plan caches over the process lifetime.")
	MPlannerChoices = Default.NewLabeledCounter("lincount_planner_choice_total",
		"Auto planner rankings by the strategy ranked first.", "strategy")
	MPlannerQError = Default.NewHistogram("lincount_planner_qerror",
		"Auto planner estimation error per evaluation: the factor (>= 1) between the estimated cost of the strategy that answered and its observed inferences.",
		[]float64{1, 1.5, 2, 3, 5, 10, 30, 100, 1000})
	MCompileDuration = Default.NewHistogram("lincount_compile_duration_seconds",
		"Wall-clock time of plan-cache-miss query compilations (adorn, analyze, rewrite).",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
)

// The query-server metrics, recorded by internal/server: request
// outcomes, admission-control sheds, the in-flight/queued gauges the
// load shedder exposes, write-batch behavior, and the current snapshot
// epoch. Latencies are end-to-end (admission wait included) so p99 under
// load reflects what a client actually sees.
var (
	MServerRequests = Default.NewLabeledCounter("lincount_server_requests_total",
		"Query-server requests accepted for processing, by endpoint.", "endpoint")
	MServerErrors = Default.NewLabeledCounter("lincount_server_errors_total",
		"Query-server requests that failed, by error class (busy, draining, canceled, limit, bad_request, internal, other).", "class")
	MServerShed = Default.NewCounter("lincount_server_shed_total",
		"Requests rejected by admission control (semaphore full and wait queue at capacity, or write queue full).")
	MServerInFlight = Default.NewGauge("lincount_server_in_flight",
		"Requests currently holding an admission slot or waiting on the write path.")
	MServerQueued = Default.NewGauge("lincount_server_queued",
		"Requests waiting in the admission queue for a concurrency slot.")
	MServerReqDuration = Default.NewLabeledHistogram("lincount_request_duration_seconds",
		"End-to-end query-server request latency by handler and outcome (ok, shed, timeout, killed, error), admission wait included.",
		[2]string{"handler", "outcome"},
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60})
	MServerQueueWait = Default.NewHistogram("lincount_server_queue_wait_seconds",
		"Time read requests spent waiting in the admission queue for a concurrency slot.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10})
	MServerSlowQueries = Default.NewCounter("lincount_server_slow_queries_total",
		"Requests recorded in the slow-query log (latency over the configured threshold).")
	MServerQueriesKilled = Default.NewCounter("lincount_server_queries_killed_total",
		"In-flight queries canceled through the active-query registry (DELETE /v1/queries/{id}).")
	MServerWriteBatches = Default.NewCounter("lincount_server_write_batches_total",
		"Write batches published as new epoch snapshots.")
	MServerWriteBatchOps = Default.NewHistogram("lincount_server_write_batch_ops",
		"Write requests coalesced per published batch.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	MServerWriteRetries = Default.NewCounter("lincount_server_write_retries_total",
		"Write-batch apply attempts retried after a retryable failure.")
	MServerEpoch = Default.NewGauge("lincount_server_epoch",
		"Current published snapshot epoch (increments once per write batch).")
	MServerMaintBatches = Default.NewCounter("lincount_server_maint_batches_total",
		"Write batches applied through incremental materialisation maintenance.")
	MServerMaintFallbacks = Default.NewCounter("lincount_server_maint_fallbacks_total",
		"Write batches that fell back from maintenance to base apply plus full re-materialisation.")
	MServerDrains = Default.NewCounter("lincount_server_drains_total",
		"Graceful drains initiated (SIGTERM/SIGINT or explicit Drain).")
	MServerDrainCanceled = Default.NewCounter("lincount_server_drain_canceled_total",
		"In-flight requests force-canceled because the drain deadline expired.")
)

// The durability metrics, recorded by internal/wal and the server's
// checkpoint/recovery paths: append volume, fsync latency (the floor
// under write-acknowledgment latency when the policy is "always"),
// checkpoint cadence, and what boot-time recovery had to replay or
// discard.
var (
	MWALRecords = Default.NewCounter("lincount_wal_records_total",
		"Batch records appended to the write-ahead log.")
	MWALBytes = Default.NewCounter("lincount_wal_bytes_total",
		"Bytes appended to the write-ahead log (framing included).")
	MWALFsyncSeconds = Default.NewHistogram("lincount_wal_fsync_seconds",
		"Write-ahead-log fsync latency.",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	MWALCheckpoints = Default.NewCounter("lincount_wal_checkpoints_total",
		"Checkpoints completed (snapshot written, manifest swapped, log truncated).")
	MWALCheckpointErrors = Default.NewCounter("lincount_wal_checkpoint_errors_total",
		"Checkpoints aborted by an error; the previous manifest/segment pair stays live.")
	MWALCheckpointSeconds = Default.NewHistogram("lincount_wal_checkpoint_seconds",
		"Wall-clock checkpoint duration (rotation through manifest swap).",
		[]float64{1e-3, 1e-2, 0.1, 1, 10, 60})
	MWALRecoveryRecords = Default.NewCounter("lincount_wal_recovery_records_total",
		"WAL records replayed during boot-time recovery.")
	MWALRecoveryTruncated = Default.NewCounter("lincount_wal_recovery_truncated_bytes_total",
		"Torn-tail bytes truncated from the live segment during recovery.")
)

// EvalSample is the once-per-evaluation metrics record. Fields mirror
// the public Stats plus the outcome.
type EvalSample struct {
	Strategy      string // concrete strategy that answered (or was attempted)
	Inferences    int64
	Probes        int64
	DerivedFacts  int64
	AnswerTuples  int64
	ArenaValues   int64
	CountingNodes int64
	Degradations  int64
	FaultHits     int64
	Duration      time.Duration
	// ErrClass is "" for success, else one of "limit", "canceled",
	// "internal", "other".
	ErrClass string
}

// RecordEval folds one evaluation into the default registry. It performs
// a fixed handful of atomic adds and two mutexed histogram observations —
// no allocation — so the facade can call it unconditionally.
func RecordEval(s EvalSample) {
	if s.ErrClass != "" {
		MEvalErrors.Add(s.ErrClass, 1)
	} else {
		MEvaluations.Add(s.Strategy, 1)
	}
	MInferences.Add(s.Inferences)
	MProbes.Add(s.Probes)
	MDerivedFacts.Add(s.DerivedFacts)
	MAnswerTuples.Add(s.AnswerTuples)
	MArenaValues.Add(s.ArenaValues)
	if s.CountingNodes > 0 {
		MCountingSetLast.Set(s.CountingNodes)
		MCountingSet.Observe(float64(s.CountingNodes))
	}
	MDegradations.Add(s.Degradations)
	MFaultHits.Add(s.FaultHits)
	MEvalDuration.Observe(s.Duration.Seconds())
}
