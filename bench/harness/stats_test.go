package harness

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.99: 99, 1: 100, 0: 1} {
		if got := Percentile(ds, q); got != want {
			t.Errorf("Percentile(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("Percentile of nothing should be 0")
	}
}

func TestSummarizeSplitsByCompletionTime(t *testing.T) {
	// Two segments of one second: three fast successes in the first, one
	// slow success and one failure in the second, one sample outside.
	samples := []Sample{
		{End: 100 * time.Millisecond, Lat: 1 * time.Millisecond, OK: true},
		{End: 200 * time.Millisecond, Lat: 2 * time.Millisecond, OK: true},
		{End: 900 * time.Millisecond, Lat: 3 * time.Millisecond, OK: true},
		{End: 1500 * time.Millisecond, Lat: 40 * time.Millisecond, OK: true},
		{End: 1600 * time.Millisecond, Lat: 50 * time.Millisecond, OK: false},
		{End: -time.Millisecond, Lat: time.Millisecond, OK: true},
		{End: 2 * time.Second, Lat: time.Millisecond, OK: true},
	}
	s := Summarize(samples, 2*time.Second, 2)
	if s.OK != 4 || s.Failed != 1 {
		t.Fatalf("OK=%d Failed=%d, want 4 and 1", s.OK, s.Failed)
	}
	if s.OpsPerS.Min != 1 || s.OpsPerS.Max != 3 || s.OpsPerS.Median != 2 {
		t.Errorf("ops/s spread %+v, want min 1 max 3 median 2", s.OpsPerS)
	}
	if s.P50ms.Min != 2 || s.P50ms.Max != 40 {
		t.Errorf("p50 spread %+v, want min 2 max 40", s.P50ms)
	}
}
