// Command lincount evaluates a bound-argument query over a Datalog program
// and a fact database with a selectable optimization strategy.
//
// Usage:
//
//	lincount -program sg.dl -facts data.dl -query '?- sg(a,Y).' [-strategy auto] [-stats]
//
// When -query is omitted, the queries embedded in the program file ("?-"
// lines) are evaluated in order. Fact files ending in .lcdb are read as
// binary snapshots. The strategy names are those of lincount.Strategy:
// auto, naive, semi-naive, magic, magic-sup, qsq, counting-classic,
// counting, counting-reduced, counting-runtime.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"lincount"
	"lincount/internal/obsv"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI; factored out of main so tests can drive it. ctx
// carries the SIGINT interrupt: a Ctrl-C cancels the running evaluation,
// which drains and reports "interrupted" instead of killing the process
// mid-write.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lincount", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		programPath = fs.String("program", "", "path to the Datalog program (required)")
		factsPath   = fs.String("facts", "", "comma-separated fact files (.dl text or .lcdb snapshots)")
		query       = fs.String("query", "", "query to evaluate, e.g. '?- sg(a,Y).'")
		strategy    = fs.String("strategy", "auto", "evaluation strategy")
		timeout     = fs.Duration("timeout", 0, "abort evaluation after this long (e.g. 30s; 0 = no limit)")
		stats       = fs.Bool("stats", false, "print evaluation statistics")
		showRewrite = fs.Bool("rewrite", false, "print the rewritten program before the answers")
		why         = fs.Bool("why", false, "print a derivation witness for every answer (linear programs only)")
		trace       = fs.Bool("trace", false, "print the evaluation trace (strata, fixpoint iterations, runtime phases, QSQ passes) as % comment lines after the answers")
		lintOnly    = fs.Bool("lint", false, "run static diagnostics over the program and exit")
		cset        = fs.Bool("cset", false, "print the counting set (paper notation) instead of evaluating")
		obsAddr     = fs.String("obs", "", "serve /metrics, /debug/pprof/* and /trace.json on this address (e.g. 127.0.0.1:9464)")
		obsLinger   = fs.Bool("obs-linger", false, "with -obs: keep serving after the queries finish, until interrupted")
		traceJSON   = fs.String("trace-json", "", "write the evaluation trace (Chrome trace-event JSON) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "lincount:", err)
		return 1
	}

	var server *obsv.Server
	if *obsAddr != "" {
		var err error
		server, err = obsv.Serve(*obsAddr)
		if err != nil {
			return fail(err)
		}
		// Graceful: finish an in-flight /metrics scrape or pprof profile
		// before the process exits, instead of dropping the connection.
		defer server.ShutdownTimeout(2 * time.Second)
		fmt.Fprintf(stderr, "lincount: observability on http://%s/\n", server.Addr)
	}
	var tracer *lincount.Tracer
	if *obsAddr != "" || *traceJSON != "" || *trace {
		tracer = lincount.NewTracer()
	}

	if *programPath == "" {
		fmt.Fprintln(stderr, "lincount: -program is required")
		fs.Usage()
		return 2
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		return fail(err)
	}
	p, err := lincount.ParseProgram(string(src))
	if err != nil {
		return fail(fmt.Errorf("parsing %s: %w", *programPath, err))
	}
	if *lintOnly {
		findings, hasErrors := p.Lint()
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if hasErrors {
			return 1
		}
		return 0
	}
	db := lincount.NewDatabase(p)
	if *factsPath != "" {
		for _, path := range strings.Split(*factsPath, ",") {
			if strings.HasSuffix(path, ".lcdb") {
				f, err := os.Open(path)
				if err != nil {
					return fail(err)
				}
				err = db.LoadSnapshot(f)
				f.Close()
				if err != nil {
					return fail(fmt.Errorf("loading snapshot %s: %w", path, err))
				}
				continue
			}
			facts, err := os.ReadFile(path)
			if err != nil {
				return fail(err)
			}
			if err := db.LoadFacts(string(facts)); err != nil {
				return fail(fmt.Errorf("loading %s: %w", path, err))
			}
		}
	}
	s, err := lincount.ParseStrategy(*strategy)
	if err != nil {
		return fail(err)
	}

	queries := p.Queries()
	if *query != "" {
		queries = []string{*query}
	}
	if len(queries) == 0 {
		return fail(fmt.Errorf("no query: pass -query or embed '?- goal.' in the program"))
	}

	for _, q := range queries {
		if *cset {
			out, err := lincount.CountingSet(p, db, q)
			if err != nil {
				return fail(fmt.Errorf("counting set for %s: %w", q, err))
			}
			fmt.Fprintf(stdout, "%% %s\n%s", q, out)
			continue
		}
		if *why {
			exps, err := lincount.Explain(p, db, q)
			if err != nil {
				return fail(fmt.Errorf("explaining %s: %w", q, err))
			}
			fmt.Fprintf(stdout, "%% %s  [counting-runtime with provenance]\n", q)
			for _, e := range exps {
				fmt.Fprintln(stdout, strings.Join(e.Answer, ", "))
				for _, line := range strings.Split(strings.TrimRight(e.Witness, "\n"), "\n") {
					fmt.Fprintf(stdout, "    %s\n", line)
				}
			}
			continue
		}
		var opts []lincount.Option
		if *timeout > 0 {
			opts = append(opts, lincount.WithMaxDuration(*timeout))
		}
		if tracer != nil {
			opts = append(opts, lincount.WithTracer(tracer))
		}
		// Queries go through the prepared-query facade: repeated goals in
		// one input (common in generated query files) compile once and hit
		// the program's plan cache afterwards.
		pq, err := lincount.Prepare(p, q, s, opts...)
		if err != nil {
			return fail(fmt.Errorf("compiling %s: %w", q, err))
		}
		res, err := pq.EvalContext(ctx, db)
		if err != nil {
			switch {
			case errors.Is(err, context.Canceled):
				fmt.Fprintf(stderr, "lincount: %s: interrupted\n", q)
			case errors.Is(err, context.DeadlineExceeded):
				fmt.Fprintf(stderr, "lincount: %s: timed out after %s\n", q, *timeout)
			default:
				return fail(fmt.Errorf("evaluating %s: %w", q, err))
			}
			return 1
		}
		fmt.Fprintf(stdout, "%% %s  [%s]\n", q, res.Strategy)
		for i, a := range res.Degraded {
			fmt.Fprintf(stdout, "%% degraded: attempt %d (%s) failed: %s\n", i+1, a.Strategy, a.Err)
			fmt.Fprintf(stdout, "%%   attempt work: inferences=%d facts=%d probes=%d counting-set=%d in %s\n",
				a.Stats.Inferences, a.Stats.DerivedFacts, a.Stats.Probes,
				a.Stats.CountingNodes, a.Duration.Round(time.Microsecond))
		}
		if *showRewrite && res.Rewritten != "" {
			fmt.Fprintln(stdout, "% rewritten program:")
			for _, line := range strings.Split(strings.TrimSpace(res.Rewritten), "\n") {
				fmt.Fprintf(stdout, "%%   %s\n", line)
			}
			fmt.Fprintf(stdout, "%%   goal: %s\n", res.RewrittenQuery)
		}
		for _, row := range res.Answers {
			fmt.Fprintln(stdout, strings.Join(row, ", "))
		}
		if *stats {
			st := res.Stats
			fmt.Fprintf(stdout, "%% answers=%d inferences=%d facts=%d counting-set=%d answer-tuples=%d iterations=%d probes=%d arena-values=%d\n",
				len(res.Answers), st.Inferences, st.DerivedFacts,
				st.CountingNodes, st.AnswerTuples, st.Iterations, st.Probes,
				st.ArenaValues)
		}
	}
	if *trace {
		var text strings.Builder
		if err := tracer.WriteText(&text); err != nil {
			return fail(err)
		}
		for _, line := range strings.Split(strings.TrimRight(text.String(), "\n"), "\n") {
			fmt.Fprintf(stdout, "%% %s\n", line)
		}
	}
	if tracer != nil {
		obsv.SetLastTrace(tracer)
		if *traceJSON != "" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				return fail(err)
			}
			if err := tracer.WriteChromeJSON(f); err != nil {
				f.Close()
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
		}
	}
	if server != nil && *obsLinger {
		fmt.Fprintln(stderr, "lincount: serving until interrupted (Ctrl-C)")
		<-ctx.Done()
	}
	return 0
}
