package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// the rule the repeatability criterion is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// byWorkloadMetric collects, per workload and metric, the values of every
// run in the set.
func byWorkloadMetric(s *resultSet) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range s.Results {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareSets prints one row per workload × end-to-end metric: both
// medians, each set's spread (IQR/median, when it has several runs), the
// ratio b/a with its base, and the verdict against the metric's bound. It
// reports whether every row is within its bound.
func compareSets(w io.Writer, c *contract, a, b *resultSet) bool {
	av, bv := byWorkloadMetric(a), byWorkloadMetric(b)
	workloads := make([]string, 0, len(av))
	for name := range av {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	ok := true
	fmt.Fprintf(w, "%-12s %-22s %12s %12s %-6s %8s %8s %22s %7s  %s\n",
		"workload", "metric", "a", "b", "unit", "spread a", "spread b", "b/a (base a)", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range c.EndToEnd {
			as, bs := av[wl][m.Name], bv[wl][m.Name]
			if len(as) == 0 || len(bs) == 0 {
				fmt.Fprintf(w, "%-12s %-22s missing from one side\n", wl, m.Name)
				ok = false
				continue
			}
			a1, a2, a3 := quartiles(as)
			b1, b2, b3 := quartiles(bs)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := b2/a2 - 1 // share of a's median by which b is worse
			if m.Better == "higher" {
				worse = 1 - b2/a2
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict = "UNRESOLVED"
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-22s %12.4f %12.4f %-6s %7.1f%% %7.1f%% %9.3f (a=%.4g) %6.0f%%  %s\n",
				wl, m.Name, a2, b2, m.Unit, 100*spreadA, 100*spreadB, b2/a2, a2, 100*m.Bound, verdict)
		}
	}
	return ok
}

// selfCheck runs the same code as two sets of `runs` seeds per workload
// (a child process per run, as the driver does) and compares them: the
// repeatability gate. Set a uses seeds seed..seed+runs-1, set b the next
// `runs` seeds.
func selfCheck(c *contract, workload string, runs int, seed int64, seconds float64, contractPath, out string) bool {
	var names []string
	for _, w := range c.Workloads {
		if workload == "all" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	sets := [2]*resultSet{{}, {}}
	correct := true
	for i, set := range sets {
		for _, name := range names {
			for k := 0; k < runs; k++ {
				res, err := runChild(name, seed+int64(i*runs+k), seconds, false, contractPath)
				if err != nil {
					fatal(err)
				}
				correct = correct && res.Correct
				set.Results = append(set.Results, *res)
			}
		}
	}
	if out != "" {
		for i, set := range sets {
			if err := set.write(fmt.Sprintf("%s.%c.json", out, 'a'+i)); err != nil {
				fatal(err)
			}
		}
	}
	return compareSets(os.Stdout, c, sets[0], sets[1]) && correct
}
