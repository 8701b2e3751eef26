package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it ran, the span
// that caused it (0 = none; ids start at 1) and the request it belongs to.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int32
	req        int64
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the same request code serves the traced and the
// untraced run; end-to-end metrics are always taken with it nil.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// spanRef is an open span. The zero value (from a nil recorder) is inert.
type spanRef struct {
	rec *recorder
	id  int32
}

// ownRequest is the first request id given to spans that are a request of
// their own (the load phases' evaluations and HTTP calls).
const ownRequest = 1 << 32

// begin opens a span. parent is the id of the causing span or 0; req
// groups the spans of one request, and -1 makes the span its own request.
func (r *recorder) begin(name string, parent int32, req int64) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	if req < 0 {
		req = ownRequest + int64(id)
	}
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, req: req})
	r.mu.Unlock()
	return spanRef{rec: r, id: id}
}

// end closes the span and returns its duration.
func (s spanRef) end() time.Duration {
	if s.rec == nil {
		return 0
	}
	now := time.Since(s.rec.epoch)
	s.rec.mu.Lock()
	sp := &s.rec.spans[s.id-1]
	sp.end = now
	d := sp.end - sp.start
	s.rec.mu.Unlock()
	return d
}

// selfTimes returns, per span name, each span's duration minus the time
// its direct children cover — the layer's own share of the work — for the
// spans of requests in [fromReq, toReq).
func (r *recorder) selfTimes(fromReq, toReq int64) map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans)+1)
	for _, s := range r.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		if s.req < fromReq || s.req >= toReq {
			continue
		}
		self := s.end - s.start - child[i+1]
		out[s.name] = append(out[s.name], float64(self)/float64(time.Microsecond))
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, µs), loadable in chrome://tracing and Perfetto. Spans of one
// request share a tid so each request renders as one nested track.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Pid:  1,
			Tid:  s.req,
			Args: map[string]any{"span": i + 1, "parent": s.parent, "request": s.req},
		}
	}
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
