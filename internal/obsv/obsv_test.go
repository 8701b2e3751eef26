package obsv

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin("cat", "name")
	sp.End(A("k", 1))
	tr.Counter("c", 7)
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer recorded %v", got)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer accessors not inert")
	}
	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "disabled") {
		t.Fatalf("nil WriteText = %q", sb.String())
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer()
	outer := tr.Begin("eval", "outer")
	inner := tr.Begin("engine", "inner")
	time.Sleep(time.Millisecond)
	inner.End(A("facts", 42))
	tr.Counter("worklist", 3)
	outer.End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	names := tr.SpanNames()
	if len(names) != 2 || names[0] != "inner" || names[1] != "outer" {
		t.Fatalf("SpanNames = %v", names)
	}
	var found bool
	for _, e := range evs {
		if e.Name == "inner" {
			found = true
			if e.Dur < time.Millisecond {
				t.Fatalf("inner span duration %v too short", e.Dur)
			}
			if len(e.Args) != 1 || e.Args[0].Key != "facts" || e.Args[0].Val != 42 {
				t.Fatalf("inner args = %v", e.Args)
			}
		}
	}
	if !found {
		t.Fatal("inner span not recorded")
	}

	var text strings.Builder
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"outer", "inner", "facts=42", "worklist"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, text.String())
		}
	}
}

func TestChromeJSONParses(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("eval", "eval")
	tr.Begin("engine", "component sg").End(A("facts", 9))
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			TS   float64          `json:"ts"`
			PID  int64            `json:"pid"`
			TID  int64            `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(out.TraceEvents))
	}
	for _, e := range out.TraceEvents {
		if e.Ph != "X" || e.PID != 1 || e.TID != 1 {
			t.Fatalf("unexpected event shape %+v", e)
		}
	}
	if out.TraceEvents[0].Args != nil && out.TraceEvents[0].Args["facts"] != 9 {
		// Event order is by start time; the component span started second
		// but args may appear on either depending on timestamps.
		t.Logf("args: %+v", out.TraceEvents)
	}
}

func TestTracerEventCap(t *testing.T) {
	tr := NewTracer()
	tr.max = 4
	for i := 0; i < 10; i++ {
		tr.Begin("c", "s").End()
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("got %d events, want cap 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "A test counter.")
	g := r.NewGauge("test_gauge", "A test gauge.")
	lc := r.NewLabeledCounter("test_by_kind_total", "A labeled counter.", "kind")
	h := r.NewHistogram("test_seconds", "A histogram.", []float64{0.1, 1})

	c.Add(3)
	g.Set(-7)
	lc.Add("magic", 2)
	lc.Add("counting", 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# HELP test_total A test counter.",
		"# TYPE test_total counter",
		"test_total 3",
		"test_gauge -7",
		`test_by_kind_total{kind="counting"} 1`,
		`test_by_kind_total{kind="magic"} 2`,
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_sum 5.55",
		"test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Structural validity: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "y")
}

func TestRecordEvalFoldsSample(t *testing.T) {
	before := MInferences.Value()
	beforeEvals := MEvaluations.Value("test-strategy")
	RecordEval(EvalSample{
		Strategy: "test-strategy", Inferences: 11, Probes: 5,
		CountingNodes: 64, Duration: 2 * time.Millisecond,
	})
	if got := MInferences.Value() - before; got != 11 {
		t.Fatalf("inferences delta = %d, want 11", got)
	}
	if got := MEvaluations.Value("test-strategy") - beforeEvals; got != 1 {
		t.Fatalf("evaluations delta = %d, want 1", got)
	}
	if MCountingSetLast.Value() != 64 {
		t.Fatalf("counting-set gauge = %d, want 64", MCountingSetLast.Value())
	}
	RecordEval(EvalSample{Strategy: "test-strategy", ErrClass: "limit"})
	if MEvalErrors.Value("limit") == 0 {
		t.Fatal("error class not counted")
	}
}

func TestServeEndpoints(t *testing.T) {
	tr := NewTracer()
	tr.Begin("eval", "eval").End()
	SetLastTrace(tr)

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "lincount_evaluations_total") {
		t.Fatalf("/metrics: code=%d body=%.120q", code, body)
	}
	if code, body := get("/trace.json"); code != 200 || !strings.Contains(body, "traceEvents") {
		t.Fatalf("/trace.json: code=%d body=%.120q", code, body)
	} else {
		var js map[string]any
		if err := json.Unmarshal([]byte(body), &js); err != nil {
			t.Fatalf("/trace.json invalid JSON: %v", err)
		}
	}
	if code, _ := get("/trace.txt"); code != 200 {
		t.Fatalf("/trace.txt: code=%d", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code=%d body=%.120q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: code=%d, want 404", code)
	}
}
