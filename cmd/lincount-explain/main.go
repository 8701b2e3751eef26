// Command lincount-explain prints the rewritten program each strategy
// would evaluate for a given query, side by side — the quickest way to see
// what the magic-set, counting and reduction transformations do to a
// program. With -plan it also prints the compiled join orders. With
// -analyze (and -facts) it runs the query under a tracer and prints an
// EXPLAIN ANALYZE-style table: per-rule runs, inferences, derived tuples
// and wall-clock time.
//
// Usage:
//
//	lincount-explain -program sg.dl -query '?- sg(a,Y).' [-strategy counting] [-plan]
//	lincount-explain -program sg.dl -facts data.dl -analyze
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"lincount"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main so tests can drive it. ctx
// (plus the optional -timeout) bounds the per-strategy rewriting loop: a
// SIGINT stops after the strategy in flight instead of printing the rest.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lincount-explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		programPath = fs.String("program", "", "path to the Datalog program (required)")
		factsPath   = fs.String("facts", "", "comma-separated fact files (.dl text or .lcdb snapshots)")
		query       = fs.String("query", "", "query, e.g. '?- sg(a,Y).' (defaults to the program's first embedded query)")
		strategy    = fs.String("strategy", "", "show only this strategy (default: all; with -analyze: evaluate with it, default auto)")
		plan        = fs.Bool("plan", false, "also print the compiled evaluation plan per strategy")
		analyze     = fs.Bool("analyze", false, "evaluate the query under a tracer and print per-rule work (EXPLAIN ANALYZE)")
		timeout     = fs.Duration("timeout", 0, "abort after this long (e.g. 30s; 0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "lincount-explain:", err)
		return 1
	}

	if *programPath == "" {
		fmt.Fprintln(stderr, "lincount-explain: -program is required")
		fs.Usage()
		return 2
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		return fail(err)
	}
	p, err := lincount.ParseProgram(string(src))
	if err != nil {
		return fail(err)
	}
	q := *query
	if q == "" {
		qs := p.Queries()
		if len(qs) == 0 {
			return fail(fmt.Errorf("no query: pass -query or embed '?- goal.' in the program"))
		}
		q = qs[0]
	}

	if *analyze {
		s := lincount.Auto
		if *strategy != "" {
			var err error
			if s, err = lincount.ParseStrategy(*strategy); err != nil {
				return fail(err)
			}
		}
		db := lincount.NewDatabase(p)
		if *factsPath != "" {
			for _, path := range strings.Split(*factsPath, ",") {
				if err := loadFacts(db, path); err != nil {
					return fail(err)
				}
			}
		}
		return runAnalyze(ctx, stdout, stderr, p, db, q, s)
	}

	strategies := []lincount.Strategy{
		lincount.Magic, lincount.MagicSup, lincount.CountingClassic,
		lincount.Counting, lincount.CountingReduced, lincount.CountingRuntime,
	}
	if *strategy != "" {
		s, err := lincount.ParseStrategy(*strategy)
		if err != nil {
			return fail(err)
		}
		strategies = []lincount.Strategy{s}
	}

	fmt.Fprintf(stdout, "%% query: %s\n%% original program:\n%s\n", q, indent(p.Text()))
	// Show what Auto would do before the per-strategy rewrites: the
	// planner's ranking (cost estimates use facts embedded in the program;
	// no database is loaded here) and the graceful-degradation order it
	// implies.
	if choices, err := lincount.PlannerChoices(p, nil, q); err == nil {
		names := make([]string, len(choices))
		for i, c := range choices {
			names[i] = c.Strategy.String()
		}
		fmt.Fprintf(stdout, "%% auto resolves to %s; fallback chain: %s\n", choices[0].Strategy, strings.Join(names, " -> "))
		for _, c := range choices {
			fmt.Fprintf(stdout, "%%   cost %6.0f  %-17s %s\n", c.Cost, c.Strategy, c.Reason)
		}
		fmt.Fprintln(stdout)
	}
	for _, s := range strategies {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "lincount-explain: interrupted")
			return 1
		}
		prog, goal, err := lincount.Rewrite(p, q, s)
		fmt.Fprintf(stdout, "%% ── %s ──\n", s)
		if err != nil {
			fmt.Fprintf(stdout, "%%   not applicable: %v\n\n", err)
			continue
		}
		fmt.Fprintf(stdout, "%s%%   goal: %s\n", indent(prog), goal)
		if *plan {
			if pl, err := lincount.Plan(p, nil, q, s); err == nil {
				fmt.Fprintf(stdout, "%%   plan:\n%s", indent(pl))
			}
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// loadFacts reads one fact file (text or binary snapshot) into db.
func loadFacts(db *lincount.Database, path string) error {
	if strings.HasSuffix(path, ".lcdb") {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return db.LoadSnapshot(f)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := db.LoadFacts(string(data)); err != nil {
		return fmt.Errorf("loading %s: %w", path, err)
	}
	return nil
}

// runAnalyze evaluates q under a tracer and prints the per-rule profile —
// an EXPLAIN ANALYZE for Datalog. Rows appear in component (evaluation)
// order; for rewriting strategies the rules are those of the rewritten
// program.
func runAnalyze(ctx context.Context, stdout, stderr io.Writer, p *lincount.Program, db *lincount.Database, q string, s lincount.Strategy) int {
	tr := lincount.NewTracer()
	res, err := lincount.EvalContext(ctx, p, db, q, s, lincount.WithTracer(tr))
	if err != nil {
		fmt.Fprintln(stderr, "lincount-explain:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%% query: %s\n", q)
	if res.Resolved != res.Strategy || s == lincount.Auto {
		fmt.Fprintf(stdout, "%% strategy: %s (requested %s, resolved %s)\n", res.Strategy, s, res.Resolved)
	} else {
		fmt.Fprintf(stdout, "%% strategy: %s\n", res.Strategy)
	}
	// The planner's ranking, each estimate in the unit the run is observed
	// in (visited facts ~ inferences), and how far off it was for the
	// strategy that answered.
	for _, c := range res.Planner {
		fmt.Fprintf(stdout, "%% planner: ~%-6.0f %-17s %s\n", c.Cost, c.Strategy, c.Reason)
		if c.Strategy == res.Strategy {
			fmt.Fprintf(stdout, "%%          observed %d inferences: q-error %.2f\n", res.Stats.Inferences, c.QError(res.Stats.Inferences))
		}
	}
	for i, a := range res.Degraded {
		fmt.Fprintf(stdout, "%% attempt %d: %s failed after %s: %s\n", i+1, a.Strategy, a.Duration.Round(time.Microsecond), a.Err)
		fmt.Fprintf(stdout, "%%   wasted work: inferences=%d facts=%d probes=%d counting-set=%d\n",
			a.Stats.Inferences, a.Stats.DerivedFacts, a.Stats.Probes, a.Stats.CountingNodes)
	}
	if len(res.RuleProfile) == 0 {
		fmt.Fprintf(stdout, "%% no per-rule profile: %s does not evaluate through the rule engine\n", res.Strategy)
	} else {
		rows := [][]string{{"rule", "runs", "inferences", "tuples", "time"}}
		for _, rp := range res.RuleProfile {
			rows = append(rows, []string{
				rp.Rule, fmt.Sprint(rp.Runs), fmt.Sprint(rp.Inferences),
				fmt.Sprint(rp.DerivedFacts), rp.Duration.Round(time.Microsecond).String(),
			})
		}
		widths := make([]int, len(rows[0]))
		for _, row := range rows {
			for i, c := range row {
				if len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		for ri, row := range rows {
			for i, c := range row {
				if i == len(row)-1 {
					fmt.Fprintf(stdout, "%s\n", c)
				} else {
					fmt.Fprintf(stdout, "%-*s  ", widths[i], c)
				}
			}
			if ri == 0 {
				total := 0
				for _, w := range widths {
					total += w + 2
				}
				fmt.Fprintln(stdout, strings.Repeat("-", total))
			}
		}
	}
	st := res.Stats
	fmt.Fprintf(stdout, "%% totals: answers=%d inferences=%d facts=%d probes=%d counting-set=%d iterations=%d in %s\n",
		len(res.Answers), st.Inferences, st.DerivedFacts, st.Probes,
		st.CountingNodes, st.Iterations, st.Duration.Round(time.Microsecond))
	return 0
}

func indent(text string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		sb.WriteString("    ")
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}
