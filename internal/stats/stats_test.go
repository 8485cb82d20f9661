package stats

import (
	"math"
	"testing"

	"repro/internal/bbox"
)

func univ2(x0, y0, x1, y1 float64) bbox.Box {
	return bbox.New([]float64{x0, y0}, []float64{x1, y1})
}

func TestHistogramEdges(t *testing.T) {
	h := newHistogram(0, 100, 10)
	for _, v := range []float64{-5, 0, 10, 55, 100, 250} {
		h.Add(v) // out-of-span values clamp into edge buckets
	}
	if h.N != 6 {
		t.Fatalf("N = %d, want 6", h.N)
	}
	if got := h.CDF(-1); got != 0 {
		t.Errorf("CDF below span = %v, want 0", got)
	}
	if got := h.CDF(100); got != 1 {
		t.Errorf("CDF at top = %v, want 1", got)
	}
	if got := h.CCDF(0); got != 1 {
		t.Errorf("CCDF at bottom = %v, want 1", got)
	}
	if got := h.CCDF(101); got != 0 {
		t.Errorf("CCDF above span = %v, want 0", got)
	}
	for _, v := range []float64{-5, 0, 10, 55, 100, 250} {
		h.Remove(v)
	}
	if h.N != 0 {
		t.Fatalf("after paired removes N = %d, want 0", h.N)
	}
	for _, c := range h.Counts {
		if c != 0 {
			t.Fatalf("after paired removes counts = %v, want all zero", h.Counts)
		}
	}
	h.Remove(3) // removing from empty must not underflow
	if h.N != 0 {
		t.Fatalf("remove on empty changed N to %d", h.N)
	}
}

func TestHistogramDegenerateSpan(t *testing.T) {
	h := newHistogram(7, 7, 10) // every value is the point 7
	h.Add(7)
	h.Add(7)
	if got := h.CDF(7); got != 1 {
		t.Errorf("degenerate CDF(7) = %v, want 1", got)
	}
	if got := h.CCDF(7); got != 1 {
		t.Errorf("degenerate CCDF(7) = %v, want 1", got)
	}
	if got := h.CDF(6.9); got != 0 {
		t.Errorf("degenerate CDF(6.9) = %v, want 0", got)
	}
	if got := h.CCDF(7.1); got != 0 {
		t.Errorf("degenerate CCDF(7.1) = %v, want 0", got)
	}
}

// On one axis the estimate uses the exact marginal decomposition; the
// only error sources are within-bucket interpolation and boundary point
// mass, each bounded by one bucket's worth of objects per constraint. A
// 1-D layer with one constraint must therefore track brute force within
// ±(count/buckets) per histogram consulted.
func TestEstimateSpecNearExact1D(t *testing.T) {
	uni := bbox.New([]float64{0}, []float64{320}) // bucket width 10
	s := NewLayer(uni)
	var boxes []bbox.Box
	for i := 0; i < 16; i++ {
		x := float64(i * 20)
		b := bbox.New([]float64{x}, []float64{x + 10})
		boxes = append(boxes, b)
		s.Add(b)
	}
	iv := func(lo, hi float64) bbox.Box { return bbox.New([]float64{lo}, []float64{hi}) }
	specs := []struct {
		spec bbox.RangeSpec
		tol  float64 // in objects; count/buckets = 0.5 per histogram read
	}{
		{bbox.RangeSpec{K: 1, Lower: bbox.Empty(1), Upper: iv(0, 105)}, 1},
		{bbox.RangeSpec{K: 1, Lower: iv(40, 50), Upper: bbox.Univ(1)}, 1},
		{bbox.RangeSpec{K: 1, Lower: bbox.Empty(1), Upper: bbox.Univ(1), Overlaps: []bbox.Box{iv(95, 205)}}, 2},
	}
	for i, tc := range specs {
		want := 0
		for _, b := range boxes {
			if tc.spec.Matches(b) {
				want++
			}
		}
		got := s.EstimateSpec(tc.spec)
		if math.Abs(got-float64(want)) > tc.tol {
			t.Errorf("spec %d: estimate %v, want %d ± %v", i, got, want, tc.tol)
		}
	}
	// A witness beyond every stored box must estimate exactly zero.
	miss := bbox.RangeSpec{K: 1, Lower: bbox.Empty(1), Upper: bbox.Univ(1), Overlaps: []bbox.Box{iv(500, 600)}}
	if got := s.EstimateSpec(miss); got != 0 {
		t.Errorf("disjoint witness estimate = %v, want 0", got)
	}
}

// Across axes the estimator assumes independence; for correlated data it
// must still stay finite, bounded by the count, and monotone in the
// constraint (a looser Upper can only admit more).
func TestEstimateSpecBoundedAndMonotone2D(t *testing.T) {
	s := NewLayer(univ2(0, 0, 320, 320))
	for i := 0; i < 16; i++ {
		x := float64(i * 20)
		s.Add(univ2(x, x, x+10, x+10)) // perfectly correlated diagonal
	}
	prev := -1.0
	for _, hi := range []float64{50, 100, 200, 320} {
		got := s.EstimateSpec(bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: univ2(0, 0, hi, hi)})
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 || got > float64(s.Count()) {
			t.Fatalf("Upper [0,%g]: estimate %v out of [0,%d]", hi, got, s.Count())
		}
		if got < prev {
			t.Errorf("estimate not monotone: Upper [0,%g] → %v < previous %v", hi, got, prev)
		}
		prev = got
	}
	if prev != float64(s.Count()) {
		t.Errorf("estimate under whole-universe Upper = %v, want full count %d", prev, s.Count())
	}
}

func TestEstimateSpecDegenerateInputs(t *testing.T) {
	empty := NewLayer(univ2(0, 0, 100, 100))
	if got := empty.EstimateSpec(bbox.AllSpec(2)); got != 0 {
		t.Errorf("empty layer estimate = %v, want 0", got)
	}
	s := NewLayer(bbox.Univ(2)) // unbounded universe → clamped spans
	s.Add(univ2(1, 1, 2, 2))
	if got := s.EstimateSpec(bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: bbox.Empty(2)}); got != 0 {
		t.Errorf("empty-Upper estimate = %v, want 0", got)
	}
	spec := bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: bbox.Univ(2), Overlaps: []bbox.Box{bbox.Empty(2)}}
	if got := s.EstimateSpec(spec); got != 0 {
		t.Errorf("empty-witness estimate = %v, want 0", got)
	}
	if got := s.EstimateSpec(bbox.AllSpec(2)); got != 1 {
		t.Errorf("AllSpec estimate = %v, want 1", got)
	}
	// Identical boxes on a degenerate (zero-width) universe span: the
	// point-mass histograms must report the exact hit and the exact miss.
	pt := NewLayer(univ2(3, 3, 4, 4))
	for i := 0; i < 5; i++ {
		pt.Add(univ2(3, 3, 4, 4))
	}
	hit := bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: univ2(3, 3, 4, 4)}
	if got := pt.EstimateSpec(hit); math.Abs(got-5) > 1e-9 {
		t.Errorf("identical-box containment estimate = %v, want 5", got)
	}
	miss := bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: bbox.Univ(2), Overlaps: []bbox.Box{univ2(5, 5, 6, 6)}}
	if got := pt.EstimateSpec(miss); got != 0 {
		t.Errorf("identical-box disjoint-witness estimate = %v, want 0", got)
	}
}

func TestMeanBox(t *testing.T) {
	s := NewLayer(univ2(0, 0, 160, 160))
	s.Add(univ2(0, 0, 10, 10))
	s.Add(univ2(20, 20, 30, 30))
	mean := s.MeanBox()
	want := univ2(10, 10, 20, 20)
	if !mean.Equal(want) {
		t.Errorf("mean box = %v, want %v", mean, want)
	}
	s.Remove(univ2(20, 20, 30, 30))
	if s.Count() != 1 {
		t.Errorf("count after remove = %d, want 1", s.Count())
	}
	if got, want := s.MeanBox(), univ2(0, 0, 10, 10); !got.Equal(want) {
		t.Errorf("mean box after remove = %v, want %v", got, want)
	}
}
