// Package stats provides the small statistical toolkit used by the
// simulation harnesses and the engine: streaming mean/variance, a log-scale
// histogram, percentiles and utilization counters. Everything is
// allocation-light and deterministic.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Welford accumulates streaming mean and variance using Welford's algorithm,
// which is numerically stable for long simulations.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds the samples of o into w (Chan et al.'s parallel update), as
// if every sample of o had been Added to w. o is unchanged.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// N returns the number of samples.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 for no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample (0 for no samples).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample (0 for no samples).
func (w *Welford) Max() float64 { return w.max }

// String implements fmt.Stringer.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f",
		w.n, w.Mean(), w.Std(), w.min, w.max)
}

// Histogram is a lock-free log-scale histogram of non-negative integer
// samples (nanoseconds, to its users). Values below 2<<histSubBits have a
// bucket each; above that every octave [2^e, 2^(e+1)) is cut into
// 1<<histSubBits equal buckets, so a bucket is never wider than a quarter
// of its lower bound, and a quantile, reported as the largest value of the
// bucket it falls in, overstates the exact order statistic by less than
// 25%. Samples of 2^histMaxExp (18 minutes of nanoseconds) and more share
// the top bucket, where quantiles report the exact maximum. Sum and
// maximum are exact.
//
// The zero value is empty and ready. Add, Merge and the readers may run
// concurrently: a reader sees every sample whose Add returned before it
// started, not an atomic cut. One instance is 158 words.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

const (
	histSubBits = 2
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) << histSubBits
)

// histBucket is the bucket of v: its top histSubBits+1 bits, offset by
// how far they were shifted down.
func histBucket(v uint64) int {
	shift := max(bits.Len64(v)-1-histSubBits, 0)
	return min(shift<<histSubBits+int(v>>shift), histBuckets-1)
}

// histUpper is the largest value bucket i holds (the top bucket has none).
func histUpper(i int) uint64 {
	shift := max(i>>histSubBits-1, 0)
	return uint64(i-shift<<histSubBits+1)<<shift - 1
}

// Add incorporates v (negative values count as 0).
func (h *Histogram) Add(v int64) { h.AddN(v, 1) }

// AddN incorporates n samples of v, as n calls of Add(v) would: one atomic
// add on v's bucket, and for a positive v one on the sum and a raise of
// the maximum.
func (h *Histogram) AddN(v int64, n uint64) {
	if n == 0 {
		return
	}
	u := uint64(max(v, 0))
	h.counts[histBucket(u)].Add(n)
	if u != 0 {
		h.sum.Add(u * n)
		h.raiseMax(u)
	}
}

func (h *Histogram) raiseMax(u uint64) {
	for m := h.max.Load(); u > m && !h.max.CompareAndSwap(m, u); m = h.max.Load() {
	}
}

// Merge folds the samples of o into h, as if each had been Added to h. o
// is unchanged.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}

// N returns the total number of samples.
func (h *Histogram) N() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Mean returns the exact sample mean (0 for no samples).
func (h *Histogram) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the exact maximum sample (0 for no samples).
func (h *Histogram) Max() float64 { return float64(h.max.Load()) }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1), less
// than 25% above the exact order statistic and never above Max; 0 for no
// samples.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: Quantile out of range")
	}
	// Rank against one reading of the buckets, so concurrent Adds cannot
	// move the target between the count and the walk.
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := max(uint64(math.Ceil(q*float64(total))), 1)
	top := h.max.Load()
	var cum uint64
	for i, c := range counts[:histBuckets-1] {
		cum += c
		if cum >= target {
			return float64(min(histUpper(i), top))
		}
	}
	return float64(top)
}

// Utilization tracks busy/total cycle counts for a resource.
type Utilization struct {
	Busy  uint64
	Total uint64
}

// Tick records one cycle, busy or idle.
func (u *Utilization) Tick(busy bool) {
	u.Total++
	if busy {
		u.Busy++
	}
}

// Value returns the busy fraction in [0,1] (0 if no cycles recorded).
func (u *Utilization) Value() float64 {
	if u.Total == 0 {
		return 0
	}
	return float64(u.Busy) / float64(u.Total)
}

// Loss returns 1 - Value(), the paper's "throughput loss" metric.
func (u *Utilization) Loss() float64 { return 1 - u.Value() }

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic("stats: Percentile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
