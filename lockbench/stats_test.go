package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    uint64
		want float64
		got  float64
	}{
		{0, 99, 0},
		{19, 99, 0},    // 9.5 samples beyond p50: not enough
		{20, 99, 50},   // exactly 10 beyond p50
		{99, 99, 50},   // 9.9 beyond p90: not enough
		{100, 99, 90},  // 10 beyond p90
		{999, 99, 90},  // 9.99 beyond p99
		{1000, 99, 99}, // 10 beyond p99
		{1_000_000, 99, 99},
		{1_000_000, 99.99, 99.99},
		{10_000, 99.99, 99.9}, // exactly 10 beyond p99.9, despite 100−99.9 ≠ 0.1 in binary
		{100, 50, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestHistExactBelowSubBuckets(t *testing.T) {
	var h hist
	for v := int64(0); v < 10; v++ {
		h.record(v)
	}
	// Ten samples 0..9, one per bin of width 1: rank q·10 lands at value q·10.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got := h.quantile(q); math.Abs(got-q*10) > 1e-9 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, q*10)
		}
	}
}

func TestHistRelativeError(t *testing.T) {
	for _, v := range []int64{63, 64, 65, 1000, 123456, 987654321, 1 << 40} {
		lo, hi := binBounds(binOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Fatalf("value %d outside its bin [%g, %g)", v, lo, hi)
		}
		if (hi-lo)/lo > 1.0/subBuckets+1e-12 && v >= subBuckets {
			t.Errorf("bin of %d is %g wide at %g: more than 1/%d", v, hi-lo, lo, subBuckets)
		}
	}
}

func TestHistMergeAndQuantile(t *testing.T) {
	var a, b hist
	for i := 0; i < 990; i++ {
		a.record(1000)
	}
	for i := 0; i < 10; i++ {
		b.record(1_000_000)
	}
	a.merge(&b)
	if a.n != 1000 {
		t.Fatalf("merged n = %d, want 1000", a.n)
	}
	if p50 := a.quantile(0.5); p50 < 984 || p50 > 1016 {
		t.Errorf("p50 = %g, want ≈1000", p50)
	}
	if p999 := a.quantile(0.999); p999 < 984_000 || p999 > 1_016_000 {
		t.Errorf("p99.9 = %g, want ≈1e6", p999)
	}
}

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g", got)
	}
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
}

func TestCounterRatios(t *testing.T) {
	if got := delta(100, 250); got != 150 {
		t.Errorf("delta = %g", got)
	}
	if got := perCommit(100, 250, 50); got != 3 {
		t.Errorf("perCommit = %g, want 3", got)
	}
	if got := perKCommit(0, 3, 1500); got != 2 {
		t.Errorf("perKCommit = %g, want 2", got)
	}
	// A window without commits reads 0, not NaN or Inf.
	if got := perCommit(1, 9, 0); got != 0 {
		t.Errorf("perCommit over no commits = %g, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio = %g", got)
	}
}

func TestWindowTail(t *testing.T) {
	ws := make([]window, 3)
	for i := range ws {
		for j := 0; j < 2000; j++ {
			ws[i].txnNs.record(int64(10 * (i + 1)))
		}
	}
	// Too few samples in this window for p99: it falls back to p90.
	small := window{}
	for j := 0; j < 500; j++ {
		small.txnNs.record(40)
	}
	ws = append(ws, small)
	tl := windowTail(ws, func(w *window) *hist { return &w.txnNs }, 99)
	if tl.samples != 6500 || tl.minWin != 500 || tl.pct != 90 {
		t.Errorf("tail = %+v, want 6500 samples, fewest 500, lowest percentile 90", tl)
	}
	// Per-window values ≈ 10, 20, 30, 40: the median is ≈ 25.
	if tl.value < 24 || tl.value > 26 {
		t.Errorf("median of window p99s = %g, want ≈25", tl.value)
	}
}
