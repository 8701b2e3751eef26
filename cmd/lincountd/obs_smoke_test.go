package main

// TestObsServerSmoke is the end-to-end observability check behind `make
// obs-smoke`: start lincountd in-process with a tiny slow-query threshold
// and an injected evaluation delay, then walk the whole per-request
// observability surface — request-ID echo on success and error bodies,
// the slow-query log with its planner ranking and per-rule profiles, the
// structured JSON log line for the same request, and live introspection
// plus cancellation via GET/DELETE /v1/queries.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"lincount/internal/workload"
)

func TestObsServerSmoke(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", workload.SGProgram)
	facts := writeFile(t, dir, "facts.dl", workload.Chain(150))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, errOut := &syncBuffer{}, &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-program", prog, "-facts", facts,
			"-addr", "127.0.0.1:0",
			// Every request is "slow", and every evaluation crawls: the
			// injected per-round delay keeps a semi-naive query alive long
			// enough to observe in /v1/queries and kill.
			"-slow-query", "1ms",
			"-log-format", "json", "-log-level", "info",
			"-eval-faults", "engine.iter=delay~1:10ms",
			"-max-timeout", "120s",
			"-drain-timeout", "10s",
		}, out, errOut)
	}()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for base == "" {
		if m := bannerRE.FindStringSubmatch(errOut.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving banner; stderr:\n%s", errOut.String())
		}
		select {
		case code := <-done:
			t.Fatalf("run exited early with %d; stderr:\n%s", code, errOut.String())
		case <-time.After(10 * time.Millisecond):
		}
	}

	do := func(method, path, reqID, body string) (int, http.Header, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		if reqID != "" {
			req.Header.Set("X-Request-Id", reqID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.StatusCode, resp.Header, string(b)
	}

	// 1. Request-ID echo: an inbound id is honoured on the response; a
	// request without one gets a generated id.
	code, hdr, body := do("POST", "/v1/query", "obs-echo-1", `{"query":"?- sg(u0,Y)."}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	if got := hdr.Get("X-Request-Id"); got != "obs-echo-1" {
		t.Fatalf("X-Request-Id = %q, want obs-echo-1", got)
	}
	if _, hdr, _ = do("GET", "/v1/stats", "", ""); hdr.Get("X-Request-Id") == "" {
		t.Fatal("no generated X-Request-Id on a bare request")
	}

	// 2. Error bodies carry the request id too.
	code, _, body = do("POST", "/v1/query", "obs-bad-1", `{"query":"this is not datalog"}`)
	if code != http.StatusBadRequest || !strings.Contains(body, `"request_id":"obs-bad-1"`) {
		t.Fatalf("bad query: %d %s", code, body)
	}

	// 3. Slow-query capture: a forced evaluation lands in the slowlog with
	// the planner ranking and per-rule profiles, keyed by our request id.
	code, _, body = do("POST", "/v1/query", "obs-slow-1",
		`{"query":"?- sg(u0,Y).","strategy":"semi-naive","timeout_ms":120000}`)
	if code != http.StatusOK {
		t.Fatalf("slow query: %d %s", code, body)
	}
	var slowlog struct {
		Total   uint64 `json:"total"`
		Records []struct {
			RequestID string `json:"request_id"`
			Query     string `json:"query"`
			Strategy  string `json:"strategy"`
			Outcome   string `json:"outcome"`
			Planner   []struct {
				Strategy string `json:"strategy"`
			} `json:"planner"`
			Rules []struct {
				Rule string `json:"rule"`
			} `json:"rules"`
		} `json:"records"`
	}
	_, _, body = do("GET", "/v1/debug/slowlog", "", "")
	if err := json.Unmarshal([]byte(body), &slowlog); err != nil {
		t.Fatalf("slowlog: %v\n%s", err, body)
	}
	found := false
	for _, rec := range slowlog.Records {
		if rec.RequestID != "obs-slow-1" {
			continue
		}
		found = true
		if rec.Strategy != "semi-naive" || rec.Outcome != "ok" || rec.Query != "?- sg(u0,Y)." {
			t.Errorf("slowlog record = %+v", rec)
		}
		if len(rec.Planner) == 0 {
			t.Error("slowlog record has no planner ranking")
		}
		if len(rec.Rules) == 0 {
			t.Error("slowlog record has no per-rule profiles")
		}
	}
	if !found || slowlog.Total == 0 {
		t.Fatalf("slowlog (total %d) has no record for obs-slow-1:\n%s", slowlog.Total, body)
	}

	// The same request produced a structured warn line on stderr.
	if logs := errOut.String(); !strings.Contains(logs, `"msg":"slow query"`) ||
		!strings.Contains(logs, `"request_id":"obs-slow-1"`) {
		t.Errorf("no structured slow-query log line; stderr:\n%s", logs)
	}

	// 4. Live introspection and kill: a long evaluation shows up in
	// /v1/queries, DELETE by request id cancels it, and the client sees a
	// typed 409 with the id echoed.
	victim := make(chan struct {
		code int
		body string
	}, 1)
	go func() {
		code, _, body := do("POST", "/v1/query", "obs-victim-1",
			`{"query":"?- sg(u0,Y).","strategy":"semi-naive","timeout_ms":120000}`)
		victim <- struct {
			code int
			body string
		}{code, body}
	}()

	var queries struct {
		Queries []struct {
			ID        uint64 `json:"id"`
			RequestID string `json:"request_id"`
			Strategy  string `json:"strategy"`
			Facts     int64  `json:"facts"`
		} `json:"queries"`
		Count int `json:"count"`
	}
	deadline = time.Now().Add(10 * time.Second)
	visible := false
	for !visible {
		_, _, body = do("GET", "/v1/queries", "", "")
		if err := json.Unmarshal([]byte(body), &queries); err != nil {
			t.Fatalf("queries: %v\n%s", err, body)
		}
		for _, q := range queries.Queries {
			if q.RequestID == "obs-victim-1" && q.Strategy == "semi-naive" {
				visible = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never appeared in /v1/queries:\n%s", body)
		}
		if !visible {
			time.Sleep(5 * time.Millisecond)
		}
	}

	code, _, body = do("DELETE", "/v1/queries/obs-victim-1", "", "")
	if code != http.StatusOK || !strings.Contains(body, `"killed":true`) {
		t.Fatalf("kill: %d %s", code, body)
	}
	select {
	case res := <-victim:
		if res.code != http.StatusConflict || !strings.Contains(res.body, `"error":"killed"`) ||
			!strings.Contains(res.body, `"request_id":"obs-victim-1"`) {
			t.Fatalf("killed query returned %d %s", res.code, res.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed query did not unwind")
	}
	// The registry drained with it, and a kill on a finished query is a
	// crisp 404.
	_, _, body = do("GET", "/v1/queries", "", "")
	if !strings.Contains(body, `"count":0`) {
		t.Fatalf("registry not empty after kill:\n%s", body)
	}
	if code, _, _ = do("DELETE", "/v1/queries/obs-victim-1", "", ""); code != http.StatusNotFound {
		t.Fatalf("kill of a finished query = %d, want 404", code)
	}

	// 5. The labelled duration histogram made it to /metrics.
	_, _, body = do("GET", "/metrics", "", "")
	for _, w := range []string{
		`lincount_request_duration_seconds_count{handler="query",outcome="ok"}`,
		`lincount_request_duration_seconds_count{handler="query",outcome="killed"}`,
		"lincount_server_slow_queries_total",
		"lincount_server_queries_killed_total",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d; stderr:\n%s", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not exit after signal; stderr:\n%s", errOut.String())
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := parseLevel(in)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Error("parseLevel accepted an unknown level")
	}
}
