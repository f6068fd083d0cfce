package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the linearly interpolated q-quantile (0 ≤ q ≤ 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tail is the fixed percentile a workload reports as its "_tail" metric.
// It must leave at least ten samples beyond it; the workloads run until
// they hold minSamples, which guarantees that.
type tail struct {
	q float64 // e.g. 0.9 for p90
}

// minSamples is the sample count at which q still leaves ten samples
// beyond it.
func (t tail) minSamples() int {
	return int(math.Ceil(10 / (1 - t.q)))
}

// of reports the tail percentile of xs, failing when there are too few
// samples for it to be a tail at all.
func (t tail) of(xs []float64) (float64, error) {
	if len(xs) < t.minSamples() {
		return 0, fmt.Errorf("%d samples cannot carry a p%g tail (need %d)", len(xs), 100*t.q, t.minSamples())
	}
	return quantile(xs, t.q), nil
}
