package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lincount"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(context.Background(), args, &out, &errOut)
	return out.String(), errOut.String(), code
}

const sgText = `sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
?- sg(a,Y).
`

func TestCLIBasicQuery(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", sgText)
	facts := writeFile(t, dir, "facts.dl", "up(a,b). flat(b,c). down(c,d).")
	out, errOut, code := runCLI(t, "-program", prog, "-facts", facts, "-stats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "a, d") || !strings.Contains(out, "answers=1") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLIExplicitStrategyAndRewrite(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", sgText)
	facts := writeFile(t, dir, "facts.dl", "up(a,b). flat(b,c). down(c,d).")
	out, _, code := runCLI(t, "-program", prog, "-facts", facts,
		"-strategy", "counting", "-rewrite")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "[counting]") || !strings.Contains(out, "c_sg_bf(a,[]).") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLIQueryFlagOverridesEmbedded(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", sgText)
	facts := writeFile(t, dir, "facts.dl", "up(a,b). flat(b,c). down(c,d). flat(a,z).")
	out, _, code := runCLI(t, "-program", prog, "-facts", facts, "-query", "?- sg(b,Y).")
	if code != 0 {
		t.Fatal("exit nonzero")
	}
	if !strings.Contains(out, "b, c") || strings.Contains(out, "a, d") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLIWhy(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", sgText)
	facts := writeFile(t, dir, "facts.dl", "up(a,b). flat(b,c). down(c,d).")
	out, _, code := runCLI(t, "-program", prog, "-facts", facts, "-why")
	if code != 0 {
		t.Fatal("exit nonzero")
	}
	if !strings.Contains(out, "exit") || !strings.Contains(out, "undo") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLITrace(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", sgText)
	facts := writeFile(t, dir, "facts.dl", "up(a,b). flat(b,c). down(c,d).")
	// Every strategy family traces: the engine's strata and iterations,
	// the counting runtime's phases, QSQ's passes. Stdout stays answers
	// plus % comment lines.
	for strategy, want := range map[string][]string{
		"magic":            {"[engine] component ", "[engine] iteration", "delta=", "total="},
		"counting-runtime": {"[counting] counting.build", "[counting] counting.answer"},
		"qsq":              {"[qsq] qsq.pass"},
	} {
		out, _, code := runCLI(t, "-program", prog, "-facts", facts,
			"-strategy", strategy, "-trace")
		if code != 0 {
			t.Fatalf("%s: exit nonzero", strategy)
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: output lacks %q:\n%s", strategy, w, out)
			}
		}
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			if !strings.HasPrefix(line, "%") && line != "a, d" {
				t.Errorf("%s: line %q is neither an answer nor a comment", strategy, line)
			}
		}
	}
}

func TestCLILint(t *testing.T) {
	dir := t.TempDir()
	bad := writeFile(t, dir, "bad.dl", "p(X,Y) :- q(X).\n")
	out, _, code := runCLI(t, "-program", bad, "-lint")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(out, "head variable Y") {
		t.Errorf("output:\n%s", out)
	}
	good := writeFile(t, dir, "good.dl", sgText)
	_, _, code = runCLI(t, "-program", good, "-lint")
	if code != 0 {
		t.Errorf("clean program lint exit = %d", code)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", sgText)
	cases := [][]string{
		{},                                    // missing -program
		{"-program", "/does/not/exist.dl"},    // unreadable
		{"-program", prog, "-strategy", "??"}, // bad strategy
		{"-program", prog, "-facts", "/does/not/exist.dl"},
	}
	for _, args := range cases {
		if _, _, code := runCLI(t, args...); code == 0 {
			t.Errorf("args %v: expected failure", args)
		}
	}
	noQuery := writeFile(t, dir, "nq.dl", "p(a).\n")
	if _, _, code := runCLI(t, "-program", noQuery); code == 0 {
		t.Error("missing query accepted")
	}
}

// TestCLIUnknownStrategy: a strategy name no strategy has — here that of
// the removed hybrid of magic sets and counting ([16]) — fails the run
// before any evaluation.
func TestCLIUnknownStrategy(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", sgText)
	facts := writeFile(t, dir, "facts.dl", "up(a,b). flat(b,c). down(c,d).")
	name := lincount.Magic.String() + "-" + lincount.Counting.String()
	out, errOut, code := runCLI(t, "-program", prog, "-facts", facts, "-strategy", name)
	if code == 0 || !strings.Contains(errOut, fmt.Sprintf("unknown strategy %q", name)) || out != "" {
		t.Errorf("exit %d, stdout %q, stderr %q: want a failure naming the unknown strategy", code, out, errOut)
	}
}

func TestCLISnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sg.dl", sgText)
	facts := writeFile(t, dir, "facts.dl", "up(a,b). flat(b,c). down(c,d).")

	// Build a snapshot via the library, then read it back through the CLI.
	out1, _, code := runCLI(t, "-program", prog, "-facts", facts)
	if code != 0 {
		t.Fatal("text run failed")
	}
	snapPath := filepath.Join(dir, "facts.lcdb")
	makeSnapshot(t, facts, snapPath)
	out2, errOut, code := runCLI(t, "-program", prog, "-facts", snapPath)
	if code != 0 {
		t.Fatalf("snapshot run failed: %s", errOut)
	}
	if out1 != out2 {
		t.Errorf("snapshot run differs:\n%s\nvs\n%s", out1, out2)
	}
}

func makeSnapshot(t *testing.T, factsPath, outPath string) {
	t.Helper()
	data, err := os.ReadFile(factsPath)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProgram(t)
	db := newDatabase(t, p, string(data))
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
}
