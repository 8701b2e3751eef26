// Command benchmark is the repository's end-to-end and per-layer
// benchmark; BENCHMARK.json at the repository root records how it is run
// and README.md in this directory what it measures and why.
//
//	benchmark -workload sg-acyclic -seed 1 -seconds 18 -trace 0
//	benchmark                                 # all four workloads, one table
//	benchmark -workload sg-churn -trace 1     # per-layer metrics + trace file
//	benchmark -compare a.json b.json          # exit 1 past a bound
//	benchmark -selfcheck                      # two sets of runs, compared
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// contract is the part of BENCHMARK.json the program reads back: the
// names, units and bounds it must emit and compare by.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// result is the full record of one workload run; the contract's one-line
// summary is derived from it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	ElapsedS  float64           `json:"elapsed_s"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultSet is what -out writes and -compare reads: any number of runs of
// any workloads.
type resultSet struct {
	Results []result `json:"results"`
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// summaryLine renders the contract's last line of standard output.
func summaryLine(correct bool, attempted, failed int64, metrics map[string]metric) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for name, m := range metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // numbers and strings only
	return string(b)
}

// runConfig is how one workload is run.
type runConfig struct {
	seed    int64
	size    sizing
	seconds float64 // length of the measurement rounds
	workdir string  // data directories and crash images; removed afterwards
	// traced selects the traced run, which writes its spans to traceOut
	// and its attribution tables to tables.
	traced   bool
	traceOut string
	tables   io.Writer
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, s *spec, cfg runConfig) (*result, error) {
	begin := time.Now()
	r, err := newRunner(ctx, s, cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workdir)
	var metrics map[string]metric
	if cfg.traced {
		metrics, err = r.runTraced(cfg.traceOut, cfg.tables)
	} else {
		metrics, err = r.run()
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload:  s.name,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Traced:    cfg.traced,
		Env:       readEnvironment(cfg.workdir),
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Errors:    r.errs,
		ElapsedS:  time.Since(begin).Seconds(),
		Metrics:   metrics,
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printMetrics lists a run's metrics by name with unit and in-run spread.
func printMetrics(w *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d: %d attempted, %d failed, %.1f s\n", res.Workload, res.Seed, res.Attempted, res.Failed, res.ElapsedS)
	for _, n := range names {
		m := res.Metrics[n]
		switch {
		case m.Samples == 0:
			fmt.Fprintf(w, "  %-40s %12.4f %s\n", n, m.Value, m.Unit)
		case m.Unresolved:
			fmt.Fprintf(w, "  %-40s unresolved (%.4g %s, but quartiles %.4g %.4g %.4g over %d samples)\n",
				n, m.Value, m.Unit, m.Q1, m.Q2, m.Q3, m.Samples)
		default:
			fmt.Fprintf(w, "  %-40s %12.4f %-5s quartiles %.4g %.4g %.4g, %d samples, disturbance %.2f\n",
				n, m.Value, m.Unit, m.Q1, m.Q2, m.Q3, m.Samples, m.Disturbance)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  failed: %s\n", e)
	}
}

// runChild runs one workload in a fresh process of this same binary, as
// the driver does, so that runs share no heap.
func runChild(workload string, seed int64, seconds float64, traced bool, contractPath string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := os.CreateTemp(buildDir, "result-*.json")
	if err != nil {
		return nil, err
	}
	out.Close()
	defer os.Remove(out.Name())
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", trace, "-out", out.Name(), "-contract", contractPath)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	set, err := readResultSet(out.Name())
	if err != nil {
		return nil, err
	}
	return &set.Results[0], nil
}

// buildDir is where the benchmark keeps everything it writes: data
// directories, crash images, traces and child results.
const buildDir = ".bench_build"

func main() {
	var (
		workload     = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 0, "length of the measurement rounds in s (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a trace file")
		traceOut     = flag.String("trace-out", "", "trace-event file of the traced run (default .bench_build/trace-<workload>.json)")
		out          = flag.String("out", "", "also write the full results as JSON to this file")
		contractPath = flag.String("contract", "BENCHMARK.json", "path of BENCHMARK.json")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		selfcheck    = flag.Bool("selfcheck", false, "run two sets of -runs seeds per workload and compare them")
		runs         = flag.Int("runs", 10, "runs per workload and set for -selfcheck")
	)
	flag.Parse()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	c, err := loadContract(*contractPath)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(c.RunSeconds)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		a, err := readResultSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readResultSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compareSets(os.Stdout, c, a, b) {
			os.Exit(1)
		}
	case *selfcheck:
		if !selfCheck(c, *workload, *runs, *seed, *seconds, *contractPath, *out) {
			os.Exit(1)
		}
	case *workload == "all":
		set := &resultSet{}
		ok := true
		for _, w := range c.Workloads {
			res, err := runChild(w.Name, *seed, *seconds, *trace == 1, *contractPath)
			if err != nil {
				fatal(err)
			}
			printMetrics(os.Stdout, res)
			ok = ok && res.Correct
			set.Results = append(set.Results, *res)
		}
		if *out != "" {
			if err := set.write(*out); err != nil {
				fatal(err)
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		s, found := specByName(*workload)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		workdir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
		if *traceOut == "" {
			*traceOut = filepath.Join(buildDir, "trace-"+s.name+".json")
		}
		res, err := runWorkload(context.Background(), s, runConfig{
			seed: *seed, size: fullSize, seconds: *seconds, workdir: workdir,
			traced: *trace == 1, traceOut: *traceOut, tables: os.Stderr,
		})
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stderr, res)
		if *out != "" {
			if err := (&resultSet{Results: []result{*res}}).write(*out); err != nil {
				fatal(err)
			}
		}
		fmt.Println(summaryLine(res.Correct, res.Attempted, res.Failed, res.Metrics))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
