package obsv

// The structured logger's contract: suppressed lines cost nothing and
// emit nothing, JSON output is one parseable object per line opening
// with ts, level and msg, text output is logfmt, and the request-log
// ring retains newest-first with a monotonic total.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestLoggerJSON pins the JSON line contract: one object per line that
// opens with ts (UTC, milliseconds), a lower-case level and msg, then the
// attributes, durations as fractional seconds.
func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "json", slog.LevelInfo)
	l.LogAttrs(context.Background(), slog.LevelDebug, "dropped", slog.String("k", "v"))
	if buf.Len() != 0 {
		t.Fatalf("suppressed level emitted %q", buf.String())
	}
	l.LogAttrs(context.Background(), slog.LevelInfo, `query "done"`,
		slog.String("request_id", "abc-1"),
		slog.Int("rows", -3),
		slog.Uint64("epoch", 7),
		slog.Bool("ok", true),
		slog.Duration("elapsed", 1500*time.Millisecond),
		slog.Float64("cost", 2.5),
		slog.Any("error", errors.New(`bad "quote"`)),
	)
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("not exactly one line: %q", line)
	}
	head := regexp.MustCompile(`^\{"ts":"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z","level":"info","msg":"query \\"done\\"",`)
	if !head.MatchString(line) {
		t.Fatalf("line does not open with ts, level, msg: %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("output is not JSON: %v\n%q", err, line)
	}
	if m["request_id"] != "abc-1" || m["rows"] != float64(-3) || m["epoch"] != float64(7) {
		t.Fatalf("fields = %v", m)
	}
	if m["ok"] != true || m["elapsed"] != 1.5 || m["cost"] != 2.5 {
		t.Fatalf("fields = %v", m)
	}
	if m["error"] != `bad "quote"` {
		t.Fatalf("error field = %v", m["error"])
	}
}

func TestLoggerJSONEscapesControlChars(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "json", slog.LevelInfo)
	l.LogAttrs(context.Background(), slog.LevelInfo, "weird\tmsg\n", slog.String("k", "a\x00b"))
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("not JSON: %v\n%q", err, buf.String())
	}
	if m["msg"] != "weird\tmsg\n" || m["k"] != "a\x00b" {
		t.Fatalf("roundtrip lost bytes: %q", m)
	}
}

// TestLoggerText: the text format is slog's logfmt under the same keys.
func TestLoggerText(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "text", slog.LevelWarn)
	l.LogAttrs(context.Background(), slog.LevelInfo, "dropped")
	l.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
		slog.String("query", "?- sg(a,X)."), slog.Int("n", 2), slog.Duration("d", 250*time.Millisecond))
	line := buf.String()
	if strings.Contains(line, "dropped") {
		t.Fatalf("suppressed level leaked: %q", line)
	}
	if !strings.HasPrefix(line, "ts=") {
		t.Fatalf("text line %q does not open with ts=", line)
	}
	if want := ` level=warn msg="slow query" query="?- sg(a,X)." n=2 d=0.25` + "\n"; !strings.HasSuffix(line, want) {
		t.Fatalf("text line %q does not end with %q", line, want)
	}
}

// TestLoggerSetLevel: the level is a slog.Leveler, so a *slog.LevelVar
// moves it while the logger is live.
func TestLoggerSetLevel(t *testing.T) {
	var buf bytes.Buffer
	var level slog.LevelVar
	level.Set(slog.LevelError)
	l := NewLogger(&buf, "json", &level)
	if l.Enabled(context.Background(), slog.LevelInfo) {
		t.Fatal("info enabled at error level")
	}
	level.Set(slog.LevelDebug)
	l.LogAttrs(context.Background(), slog.LevelDebug, "now visible")
	if !strings.Contains(buf.String(), `"level":"debug","msg":"now visible"`) {
		t.Fatalf("debug line missing after Set: %q", buf.String())
	}
}

// TestSuppressedLogZeroAlloc: a LogAttrs call below the logger's level
// allocates nothing, attributes included.
func TestSuppressedLogZeroAlloc(t *testing.T) {
	l := NewLogger(io.Discard, "json", slog.LevelError)
	allocs := testing.AllocsPerRun(1000, func() {
		l.LogAttrs(context.Background(), slog.LevelDebug, "suppressed",
			slog.String("k", "v"), slog.Int("n", 1), slog.Duration("d", time.Second))
	})
	if allocs != 0 {
		t.Fatalf("suppressed logging allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRequestLogRing(t *testing.T) {
	var nl *RequestLog
	nl.Add(RequestRecord{}) // nil log is inert
	if nl.Snapshot() != nil || nl.Total() != 0 {
		t.Fatal("nil RequestLog not inert")
	}

	l := NewRequestLog(3)
	for i := 1; i <= 5; i++ {
		l.Add(RequestRecord{ID: uint64(i), Query: fmt.Sprintf("q%d", i)})
	}
	recs := l.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	// Newest first: 5, 4, 3 (1 and 2 evicted).
	for i, want := range []uint64{5, 4, 3} {
		if recs[i].ID != want {
			t.Fatalf("recs[%d].ID = %d, want %d", i, recs[i].ID, want)
		}
	}
	if l.Total() != 5 {
		t.Fatalf("Total = %d, want 5", l.Total())
	}

	// Records survive a JSON round trip with their tags.
	b, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"query":"q5"`) {
		t.Fatalf("JSON = %s", b)
	}
}

func TestRequestLogMinCapacity(t *testing.T) {
	l := NewRequestLog(0)
	l.Add(RequestRecord{ID: 1})
	l.Add(RequestRecord{ID: 2})
	recs := l.Snapshot()
	if len(recs) != 1 || recs[0].ID != 2 {
		t.Fatalf("capacity-1 ring = %+v", recs)
	}
}
