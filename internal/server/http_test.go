package server

// The HTTP surface: JSON round trips, the error-status contract, the
// health probes' drain transition, and the embedded obsv handler.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lincount"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestHTTPRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	h := s.Handler()

	rec := postJSON(t, h, "/v1/write", `{"assert":"f(a,b). f(b,c)."}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("write: %d %s", rec.Code, rec.Body)
	}
	var wres WriteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &wres); err != nil {
		t.Fatal(err)
	}
	if wres.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", wres.Epoch)
	}

	rec = postJSON(t, h, "/v1/query", `{"query":"?- p(X,Y)."}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	var qres QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Answers) != 2 || qres.Epoch != 1 {
		t.Fatalf("query response = %+v, want 2 answers at epoch 1", qres)
	}

	rec = get(t, h, "/v1/stats")
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.State != "serving" || stats.Epoch != 1 {
		t.Fatalf("stats = %+v, want serving at epoch 1", stats)
	}
}

func TestHTTPErrorContract(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	h := s.Handler()

	cases := []struct {
		name, path, body string
		wantStatus       int
		wantClass        string
	}{
		{"malformed json", "/v1/query", `{"query"`, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/v1/query", `{"qeury":"?- p(X,Y)."}`, http.StatusBadRequest, "bad_request"},
		{"missing query", "/v1/query", `{}`, http.StatusBadRequest, "bad_request"},
		{"bad strategy", "/v1/query", `{"query":"?- p(X,Y).","strategy":"nope"}`, http.StatusBadRequest, "bad_request"},
		{"unparsable query", "/v1/query", `{"query":"not a goal"}`, http.StatusBadRequest, "bad_request"},
		{"empty write", "/v1/write", `{}`, http.StatusBadRequest, "bad_request"},
		{"unparsable facts", "/v1/write", `{"assert":"f(("}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		rec := postJSON(t, h, tc.path, tc.body)
		if rec.Code != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.wantStatus, rec.Body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, rec.Body)
			continue
		}
		if er.Error != tc.wantClass {
			t.Errorf("%s: class = %q, want %q", tc.name, er.Error, tc.wantClass)
		}
	}
}

func TestHTTPHealthAndDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d before drain", rec.Code)
	}
	// The obsv surface rides on the same mux.
	if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "lincount_server_requests_total") {
		t.Fatalf("metrics = %d; body misses server metrics", rec.Code)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d after drain, want 503", rec.Code)
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d after drain, want 200 while process lives", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/query", `{"query":"?- p(X,Y)."}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query after drain = %d, want 503", rec.Code)
	}
}

func TestHTTPRequestIDEcho(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	h := s.Handler()

	// Inbound id is honoured and echoed on success...
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":"?- p(X,Y)."}`))
	req.Header.Set("X-Request-Id", "client-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "client-42" {
		t.Fatalf("echoed id = %q, want client-42", got)
	}

	// ...and included in error bodies, here a 400.
	req = httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{}`))
	req.Header.Set("X-Request-Id", "client-43")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != "client-43" {
		t.Fatalf("error body request_id = %q, want client-43", er.RequestID)
	}

	// Junk inbound ids are replaced by a generated one.
	req = httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	req.Header.Set("X-Request-Id", "bad id\nwith junk")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	got := rec.Header().Get("X-Request-Id")
	if got == "" || strings.Contains(got, "junk") {
		t.Fatalf("junk id not replaced: %q", got)
	}

	// No inbound id: one is generated, and distinct per request.
	first := get(t, h, "/healthz").Header().Get("X-Request-Id")
	second := get(t, h, "/healthz").Header().Get("X-Request-Id")
	if first == "" || first == second {
		t.Fatalf("generated ids = %q, %q; want distinct non-empty", first, second)
	}
}

// TestHTTPUnknownStrategy: a query naming a strategy that does not exist
// — here the removed hybrid of magic sets and counting ([16]) — is a 400
// whose JSON body names the strategy and carries the request id.
func TestHTTPUnknownStrategy(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	name := lincount.Magic.String() + "-" + lincount.Counting.String()
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(fmt.Sprintf(`{"query":"?- p(a,Y).","strategy":%q}`, name)))
	req.Header.Set("X-Request-Id", "client-mc")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", rec.Code, rec.Body)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("non-JSON error body %q", rec.Body)
	}
	if er.Error != "bad_request" || er.RequestID != "client-mc" || !strings.Contains(er.Detail, fmt.Sprintf("unknown strategy %q", name)) {
		t.Errorf("error body %+v: want bad_request, request id client-mc and the unknown strategy", er)
	}
}

// TestHTTPShedCarriesRequestID: the 503 shed path — the error body most
// likely to be grepped for during an incident — carries the request id.
func TestHTTPShedCarriesRequestID(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	defer s.Close()
	h := s.Handler()

	s.sem <- struct{}{} // occupy the only slot
	go func() { _ = s.acquire(context.Background()) }()
	deadline := time.Now().Add(2 * time.Second)
	for s.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":"?- p(X,Y)."}`))
	req.Header.Set("X-Request-Id", "shed-me")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error != "busy" || er.RequestID != "shed-me" {
		t.Fatalf("shed body = %+v, want class busy with request id", er)
	}
	<-s.sem // unblock the queued acquire so Close can drain
	s.release()
}

func TestHTTPQueriesAndSlowlogEndpoints(t *testing.T) {
	s := newTestServer(t, Config{SlowQuery: time.Nanosecond})
	defer s.Close()
	h := s.Handler()

	if rec := postJSON(t, h, "/v1/write", `{"assert":"f(a,b)."}`); rec.Code != http.StatusOK {
		t.Fatalf("write: %d %s", rec.Code, rec.Body)
	}

	// Idle registry renders an empty array, not null.
	rec := get(t, h, "/v1/queries")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"queries":[]`) {
		t.Fatalf("queries = %d %s", rec.Code, rec.Body)
	}

	// Killing a query that is not in flight is a 404 with the request id.
	req := httptest.NewRequest(http.MethodDelete, "/v1/queries/12345", nil)
	req.Header.Set("X-Request-Id", "kill-miss")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("kill miss = %d, want 404", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error != "not_found" || er.RequestID != "kill-miss" {
		t.Fatalf("kill-miss body = %+v", er)
	}

	// Every request is "slow" at a 1ns threshold; the slowlog endpoint
	// serves the record and stats counts it.
	req = httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":"?- p(X,Y)."}`))
	req.Header.Set("X-Request-Id", "slow-http")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}

	rec = get(t, h, "/v1/debug/slowlog")
	if rec.Code != http.StatusOK {
		t.Fatalf("slowlog = %d", rec.Code)
	}
	var slow SlowlogResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Total != 1 || len(slow.Records) != 1 {
		t.Fatalf("slowlog = %+v, want one record", slow)
	}
	if r0 := slow.Records[0]; r0.RequestID != "slow-http" || r0.Query != "?- p(X,Y)." {
		t.Fatalf("slowlog record = %+v", r0)
	}

	var stats StatsResponse
	rec = get(t, h, "/v1/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.SlowQueries != 1 || stats.ActiveQueries != 0 {
		t.Fatalf("stats = %+v, want slow_queries=1 active_queries=0", stats)
	}
}
