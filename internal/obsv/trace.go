// Package obsv is the observability layer of the engine: a structured
// evaluation tracer, a metrics registry, and the HTTP surface that serves
// both next to the runtime profiler.
//
// All three follow the zero-overhead-when-disabled discipline the rest of
// the engine uses (limits.Checker, faultinject.Injector): a nil *Tracer
// is a valid no-op whose methods return after a single pointer
// comparison, so evaluations that do not opt in pay nothing — no clock
// reads, no allocations, no atomic traffic on the hot paths.
//
// The tracer records spans (a named interval with integer arguments),
// instants and counter samples. Sinks render the same event list two
// ways: a human-readable text log, and the Chrome trace-event JSON
// format that chrome://tracing and https://ui.perfetto.dev load
// directly.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event phases, following the trace-event format's "ph" field.
const (
	PhaseSpan    = 'X' // complete event: Start + Dur
	PhaseCounter = 'C' // counter sample
)

// Arg is one integer annotation on an event. Span arguments are integers
// by design: every quantity the evaluators report (facts, nodes, probes)
// is a count, and integer args keep recording allocation-predictable.
type Arg struct {
	Key string
	Val int64
}

// A is shorthand for constructing an Arg.
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Event is one recorded trace event. Start and Dur are offsets from the
// tracer's epoch (its creation time).
type Event struct {
	Name  string
	Cat   string
	Phase byte
	Start time.Duration
	Dur   time.Duration
	Args  []Arg
}

// DefaultMaxEvents bounds the event buffer so a divergent traced
// evaluation cannot grow memory without bound; events beyond the cap are
// counted in Dropped() and otherwise discarded.
const DefaultMaxEvents = 1 << 17

// Tracer collects evaluation events. The zero value is not usable; call
// NewTracer. A nil *Tracer is a valid disabled tracer: every method is a
// no-op costing one pointer comparison, which is the only cost an
// untraced evaluation pays at the hook sites.
//
// Tracers are safe for concurrent use (evaluations running at once may
// record into one); recording takes a mutex, which is acceptable because
// the instrumented units are iterations and rule passes, not per-tuple
// work.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	events  []Event
	max     int
	dropped int64
}

// NewTracer returns an empty tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), max: DefaultMaxEvents}
}

// Enabled reports whether the tracer records events; it is the cheap
// guard hot paths use before assembling arguments.
func (t *Tracer) Enabled() bool { return t != nil }

// Span is an in-flight interval started by Begin. End records it. The
// zero Span (from a nil tracer) is a valid no-op.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	start time.Duration
}

// Begin starts a span. On a nil tracer it returns the no-op zero Span
// without reading the clock.
func (t *Tracer) Begin(cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, start: time.Since(t.epoch)}
}

// End records the span with optional integer arguments.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch)
	s.t.record(Event{
		Name: s.name, Cat: s.cat, Phase: PhaseSpan,
		Start: s.start, Dur: now - s.start, Args: args,
	})
}

// Counter records a sample of a named quantity (rendered as a counter
// track in the Chrome viewer).
func (t *Tracer) Counter(name string, val int64) {
	if t == nil {
		return
	}
	t.record(Event{
		Name: name, Cat: "counter", Phase: PhaseCounter,
		Start: time.Since(t.epoch), Args: []Arg{{Key: "value", Val: val}},
	})
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
	} else {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Events returns a snapshot of the recorded events in start order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped reports how many events were discarded beyond the buffer cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanNames returns the distinct names of recorded span events, sorted —
// the smoke tests' validation hook.
func (t *Tracer) SpanNames() []string {
	seen := map[string]bool{}
	for _, e := range t.Events() {
		if e.Phase == PhaseSpan && !seen[e.Name] {
			seen[e.Name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteText renders the events as a human-readable log, one line per
// event, ordered by start time. Span nesting is shown by indentation
// computed from interval containment.
func (t *Tracer) WriteText(w io.Writer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "trace: disabled")
		return err
	}
	// stack holds the end times of the spans currently containing the
	// event being printed.
	var stack []time.Duration
	for _, e := range t.Events() {
		for len(stack) > 0 && e.Start >= stack[len(stack)-1] {
			stack = stack[:len(stack)-1]
		}
		indent := strings.Repeat("  ", len(stack))
		var sb strings.Builder
		fmt.Fprintf(&sb, "%10.3fms %s[%s] %s", float64(e.Start)/1e6, indent, e.Cat, e.Name)
		if e.Phase == PhaseSpan {
			fmt.Fprintf(&sb, " (%.3fms)", float64(e.Dur)/1e6)
			stack = append(stack, e.Start+e.Dur)
		}
		for _, a := range e.Args {
			fmt.Fprintf(&sb, " %s=%d", a.Key, a.Val)
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "… %d event(s) dropped beyond the %d-event buffer\n", d, t.max); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is the trace-event format's JSON shape. Timestamps are
// microseconds.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur,omitempty"`
	PID  int64            `json:"pid"`
	TID  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChromeJSON renders the events in the Chrome trace-event JSON
// object format ({"traceEvents": [...]}), loadable by chrome://tracing
// and Perfetto.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	events := t.Events()
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Dropped     int64         `json:"droppedEvents,omitempty"`
	}{TraceEvents: make([]chromeEvent, 0, len(events)), Dropped: t.Dropped()}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: string(rune(e.Phase)),
			TS: float64(e.Start) / 1e3, PID: 1, TID: 1,
		}
		if e.Phase == PhaseSpan {
			ce.Dur = float64(e.Dur) / 1e3
		}
		if len(e.Args) > 0 {
			ce.Args = make(map[string]int64, len(e.Args))
			for _, a := range e.Args {
				ce.Args[a.Key] = a.Val
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
