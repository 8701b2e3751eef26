package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.dl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sgText = `sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
?- sg(a,Y).
`

func TestExplainAllStrategies(t *testing.T) {
	prog := write(t, sgText)
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-program", prog}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"── magic ──", "── magic-sup ──", "── counting ──",
		"── counting-runtime ──", "m_sg_bf(a).", "c_sg_bf(a,[]).",
		"cycle_sg_bf",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestExplainSingleStrategyWithPlan(t *testing.T) {
	prog := write(t, sgText)
	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{"-program", prog, "-strategy", "counting", "-plan"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	text := out.String()
	if !strings.Contains(text, "plan:") || !strings.Contains(text, "semi-naive fixpoint") {
		t.Errorf("plan missing:\n%s", text)
	}
	if strings.Contains(text, "── magic ──") {
		t.Error("other strategies shown despite -strategy")
	}
}

func TestExplainNotApplicableShown(t *testing.T) {
	prog := write(t, `tc(X,Y) :- e(X,Y).
tc(X,Y) :- tc(X,Z), tc(Z,Y).
?- tc(a,Y).
`)
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-program", prog}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "not applicable") {
		t.Errorf("non-linear program did not show inapplicability:\n%s", out.String())
	}
}

func TestExplainErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{}, &out, &errOut); code == 0 {
		t.Error("missing -program accepted")
	}
	noQuery := write(t, "p(a).\n")
	if code := run(context.Background(), []string{"-program", noQuery}, &out, &errOut); code == 0 {
		t.Error("missing query accepted")
	}
}

// TestAnalyzeShowsPlannerError: under auto, -analyze prints the planner's
// ranking and, beside the strategy that ran, the observed inferences and
// the q-error of its estimate.
func TestAnalyzeShowsPlannerError(t *testing.T) {
	prog := write(t, sgText)
	facts := write(t, "up(a,b). up(b,c). flat(c,f). down(f,g). down(g,h).\n")
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-program", prog, "-facts", facts, "-analyze"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"strategy: counting-runtime (requested auto, resolved counting-runtime)",
		"% planner: ~5      counting-runtime ",
		"observed 5 inferences: q-error 1.00",
		"% planner: ~10     magic ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// An explicit strategy has no ranking to be wrong about.
	out.Reset()
	if code := run(context.Background(), []string{"-program", prog, "-facts", facts, "-analyze", "-strategy", "magic"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "% planner:") {
		t.Errorf("planner lines under an explicit strategy:\n%s", out.String())
	}
}
