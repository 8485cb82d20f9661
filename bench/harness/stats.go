package harness

import (
	"math"
	"sort"
	"time"
)

// Sample is one completed request of the measured window.
type Sample struct {
	End time.Duration // completion time since the window opened
	Lat time.Duration
	OK  bool
}

// Spread is a metric computed once per segment: the median of the
// segment values is the reported number, Min and Max show how far the
// segments lay apart, and N is the sample count of the whole window.
type Spread struct {
	Median, Min, Max float64
	N                int
}

// SpreadOf summarises per-segment values.
func SpreadOf(vals []float64, n int) Spread {
	if len(vals) == 0 {
		return Spread{N: n}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return Spread{Median: Median(s), Min: s[0], Max: s[len(s)-1], N: n}
}

// Median returns the median of sorted values.
func Median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Percentile returns the nearest-rank q-quantile of sorted durations.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// Summary is what one kind of operation did over the measured window:
// throughput and latency percentiles, each computed per segment.
type Summary struct {
	OpsPerS, P50ms, P99ms Spread
	OK, Failed            int
}

// Summarize splits the window into equal segments by completion time and
// computes successful operations per second and the latency median and
// 99th percentile inside each. Samples outside [0, window) are ignored.
func Summarize(samples []Sample, window time.Duration, segments int) Summary {
	var sum Summary
	per := make([][]time.Duration, segments)
	okPer := make([]int, segments)
	seg := window / time.Duration(segments)
	for _, s := range samples {
		if s.End < 0 || s.End >= window {
			continue
		}
		i := int(s.End / seg)
		per[i] = append(per[i], s.Lat)
		if s.OK {
			okPer[i]++
			sum.OK++
		} else {
			sum.Failed++
		}
	}
	var ops, p50, p99 []float64
	for i, lats := range per {
		ops = append(ops, float64(okPer[i])/seg.Seconds())
		if len(lats) == 0 {
			continue
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		p50 = append(p50, ms(Percentile(lats, 0.50)))
		p99 = append(p99, ms(Percentile(lats, 0.99)))
	}
	n := sum.OK + sum.Failed
	sum.OpsPerS, sum.P50ms, sum.P99ms = SpreadOf(ops, n), SpreadOf(p50, n), SpreadOf(p99, n)
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
