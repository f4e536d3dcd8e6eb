package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of ascending data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// kindMedian is the mean, over kinds, of the median of each kind's
// samples, where kinds[i] is the kind of xs[i]; without kinds it is the
// plain median. When kinds differ in cost, a pooled median sits among
// the few samples of whichever kind lands in the middle, and moves when
// one of those few is delayed; this uses every kind's samples and weighs
// each kind the same however many the window held.
func kindMedian(xs []float64, kinds []int) float64 {
	if kinds == nil {
		return median(xs)
	}
	byKind := map[int][]float64{}
	var order []int
	for i, x := range xs {
		k := kinds[i]
		if _, ok := byKind[k]; !ok {
			order = append(order, k)
		}
		byKind[k] = append(byKind[k], x)
	}
	if len(order) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, k := range order {
		sum += median(byKind[k])
	}
	return sum / float64(len(order))
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs with at least ten samples
// beyond it — the sample with exactly ten larger ones — and names it
// ("p93.8"). Up to 2·tailBeyond samples that point is not above the
// median, so the maximum is reported instead and named as such.
func tail(xs []float64) (float64, string) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), "none"
	}
	if n <= 2*tailBeyond {
		return s[n-1], fmt.Sprintf("max(n=%d)", n)
	}
	i := n - tailBeyond - 1
	return s[i], fmt.Sprintf("p%.1f(n=%d)", 100*float64(i+1)/float64(n), n)
}
