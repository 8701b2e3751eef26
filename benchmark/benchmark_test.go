package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// requestStreams renders everything a seed decides as one byte string.
func requestStreams(t *testing.T, s *spec, seed int64) []byte {
	t.Helper()
	r, err := newRunner(context.Background(), s, runConfig{seed: seed, size: sizing{small: true}, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString(r.in.facts)
	for _, bodies := range [][][]byte{r.readBodies, r.writeBodies, r.tailBodies} {
		for _, body := range bodies {
			b.Write(body)
			b.WriteByte('\n')
		}
	}
	for _, read := range r.reads {
		if read {
			b.WriteByte('r')
		} else {
			b.WriteByte('w')
		}
	}
	return b.Bytes()
}

func TestSeedDecidesRequestStreams(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		a, again, other := requestStreams(t, s, 1), requestStreams(t, s, 1), requestStreams(t, s, 2)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 generated two different request streams", s.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 generated the same request streams", s.name)
		}
	}
}

func TestPrefixConstants(t *testing.T) {
	got := prefixConstants("up(u0,u1).\nflat(u1,d3).\n", "c7_")
	want := "up(c7_u0,c7_u1).\nflat(c7_u1,c7_d3).\n"
	if got != want {
		t.Errorf("prefixConstants = %q, want %q", got, want)
	}
}

// checkNames requires got to name exactly the contract's metrics, each
// with the contract's unit.
func checkNames(t *testing.T, want []contractMetric, got map[string]metric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s of BENCHMARK.json was not emitted", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s emitted in %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("emitted %s, which BENCHMARK.json does not list", name)
	}
}

// TestWorkloadsSmall runs every workload at ~1/50 scale, one round, once
// untraced and once traced, and holds the emitted names and units to
// BENCHMARK.json.
func TestWorkloadsSmall(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range c.Workloads {
		want = append(want, w.Name)
	}
	for _, s := range specs {
		names = append(names, s.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, want)
	}
	small := sizing{small: true, rounds: 1, setups: 1, images: 1, restarts: 1}
	for i := range specs {
		s := &specs[i]
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", s.name, traced), func(t *testing.T) {
				t.Parallel() // most of a run is waiting for its windows to pass
				dir := t.TempDir()
				res, err := runWorkload(context.Background(), s, runConfig{
					seed: 1, size: small, seconds: 0.3, workdir: filepath.Join(dir, "work"),
					traced: traced, traceOut: filepath.Join(dir, "trace.json"), tables: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%d attempted, %d failed: %v", res.Attempted, res.Failed, res.Errors)
				}
				if traced {
					checkNames(t, c.PerLayer, res.Metrics)
				} else {
					checkNames(t, c.EndToEnd, res.Metrics)
				}
			})
		}
	}
}

func TestCompareSets(t *testing.T) {
	c := &contract{EndToEnd: []contractMetric{
		{Name: "read_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "sat_rps", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	set := func(read, rps float64) *resultSet {
		return &resultSet{Results: []result{{Workload: "w", Metrics: map[string]metric{
			"read_ms": {Value: read, Unit: "ms"},
			"sat_rps": {Value: rps, Unit: "1/s"},
		}}}}
	}
	var out bytes.Buffer
	if !compareSets(&out, c, set(4, 100), set(4.3, 95)) {
		t.Errorf("changes within the bounds were reported as a regression:\n%s", out.String())
	}
	if compareSets(&out, c, set(4, 100), set(4.5, 100)) {
		t.Error("a 12.5% slower read passed a 10% bound")
	}
	if compareSets(&out, c, set(4, 100), set(4, 85)) {
		t.Error("a 15% lower throughput passed a 10% bound")
	}
	if !strings.Contains(out.String(), "(a=4)") {
		t.Errorf("the ratio is printed without its base:\n%s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
