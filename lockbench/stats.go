package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram: values below subBuckets are
// counted exactly; above that, each power of two is split into subBuckets
// equal-width bins, so a bin is at most 1/subBuckets of its value wide.
// It is owned by one goroutine and merged after the run.
type hist struct {
	counts [histBins]uint64
	n      uint64
}

const (
	subBits    = 6
	subBuckets = 1 << subBits
	histBins   = (64 - subBits + 1) * subBuckets
)

// binOf maps a non-negative value to its bin.
func binOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - subBits // ≥ 1
	sub := int(uint64(v)>>uint(exp-1)) - subBuckets
	return exp*subBuckets + sub
}

// binBounds returns the half-open value range [lo, hi) of bin b.
func binBounds(b int) (lo, hi float64) {
	if b < subBuckets {
		return float64(b), float64(b + 1)
	}
	exp := b / subBuckets
	sub := b % subBuckets
	width := math.Ldexp(1, exp-1)
	lo = float64(subBuckets+sub) * width
	return lo, lo + width
}

func (h *hist) record(v int64) {
	h.counts[binOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at fraction q of the recorded samples,
// interpolating linearly inside the landing bin. It returns 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := binBounds(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, hi := binBounds(histBins - 1)
	return (lo + hi) / 2
}

// percentileLadder lists the percentiles a tail metric may report, in
// increasing order.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile, no higher than want, that
// n samples support: at least minBeyond samples lie beyond it. With too few
// samples for any rung of the ladder it returns 0.
func tailPercentile(n uint64, want float64) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if p > want {
			break
		}
		// The slack absorbs binary rounding: 100−99.9 is not exactly 0.1.
		if float64(n)*(100-p)/100 >= minBeyond-1e-6 {
			best = p
		}
	}
	return best
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, or 0 when den is 0, so a counter a workload never
// drives reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// delta returns after−before for a monotone counter.
func delta(before, after int64) float64 { return float64(after - before) }

// perCommit returns the counter delta over the window per committed
// transaction.
func perCommit(before, after, commits int64) float64 {
	return ratio(delta(before, after), float64(commits))
}

// perKCommit is perCommit scaled to a thousand commits.
func perKCommit(before, after, commits int64) float64 {
	return 1000 * perCommit(before, after, commits)
}
