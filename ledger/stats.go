package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a tail read off fewer samples is one unlucky request, not a percentile.
const minBeyond = 10

// tailCap is the highest percentile the ledger reports; a tail is p99
// whenever a run has at least 1000 samples.
const tailCap = 99.0

// tailPercentile returns the highest percentile with at least minBeyond of n
// samples beyond it, capped at tailCap and floored at the median.
func tailPercentile(n int) float64 {
	if n <= minBeyond {
		return 50
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	return math.Max(50, math.Min(tailCap, p))
}

// percentile is the nearest-rank percentile p of ascending xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// latencySummary is a median, a p90 and a rule-chosen tail over one phase's
// requests of one kind. Failed requests count as +Inf, so they sort past any
// limit and pull the percentiles up rather than dropping out of the sample.
type latencySummary struct {
	N       int     `json:"n"`
	Failed  int     `json:"failed"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
}

// summarize computes the summary of latencies in milliseconds; failed
// requests are passed as +Inf.
func summarize(ms []float64) latencySummary {
	xs := append([]float64(nil), ms...)
	sort.Float64s(xs)
	s := latencySummary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	for _, x := range xs {
		if math.IsInf(x, 1) {
			s.Failed++
		}
	}
	s.TailPct = tailPercentile(len(xs))
	s.P50 = percentile(xs, 50)
	s.P90 = percentile(xs, 90)
	s.Tail = percentile(xs, s.TailPct)
	return s
}

// finite maps the +Inf a failed request sorts as onto the largest float, so
// a failing run still prints valid JSON (and misses any bound).
func finite(x float64) float64 {
	if math.IsInf(x, 1) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
