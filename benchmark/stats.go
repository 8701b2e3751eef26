package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation; it is the method of Python's statistics.quantiles
// (method="inclusive") and is used for every percentile the benchmark
// reports.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The host this benchmark runs on is shared. Neighbours slow the process
// down by 1.3–2×, in states that flip within milliseconds and periods that
// last minutes, and never speed it up; a 25 s run regularly sits inside
// such a period. Over 40 runs of identical code the median of a 2.8 ms
// evaluation ranged 2.81–4.83 ms while its 5th percentile stayed within
// 2.62–2.84 ms. Windows of consecutive samples (per-round medians, the
// best 16-sample window) do not help: a disturbed period has no quiet
// window as long as 16 reads, only quiet samples. So every latency is
// reported as the 5th percentile of all samples of the run and every rate
// as the 95th percentile of its blocks: what the code does when nothing
// else has the machine, which is the one quantity two runs of the same
// code agree on here. The quartiles are recorded beside it.

// quietShare is the share of a run's samples taken to be undisturbed.
const quietShare = 0.05

// metric is one reported number with the evidence behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1, Q2 and Q3 are the quartiles of the samples Value was taken
	// from, Samples their number.
	Q1      float64 `json:"q1,omitempty"`
	Q2      float64 `json:"q2,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// Disturbance is how far the run's median sample lies from Value, as
	// a share of Value: 0.1–0.4 on a quiet host, depending on the metric.
	// Past 1 the typical sample took twice the quiet one: the run was
	// disturbed throughout, the quiet tail is thin, and the value is
	// printed as unresolved, not as a number to trust.
	Disturbance float64 `json:"disturbance,omitempty"`
	Unresolved  bool    `json:"unresolved,omitempty"`
}

// quiet reports the undisturbed level of samples: their 5th percentile,
// or their 95th when higher is better.
func quiet(unit string, samples []float64, higherBetter bool) metric {
	q := quietShare
	if higherBetter {
		q = 1 - quietShare
	}
	return newMetric(unit, samples, quantile(sortedCopy(samples), q), higherBetter)
}

// newMetric records value with the quartiles of the samples it was taken
// from.
func newMetric(unit string, samples []float64, value float64, higherBetter bool) metric {
	s := sortedCopy(samples)
	m := metric{Value: value, Unit: unit, Q1: quantile(s, 0.25), Q2: quantile(s, 0.5), Q3: quantile(s, 0.75), Samples: len(s)}
	if value == 0 {
		return m
	}
	m.Disturbance = (m.Q2 - value) / value
	if higherBetter {
		m.Disturbance = -m.Disturbance
	}
	m.Unresolved = m.Disturbance > 1
	return m
}
