package main

import (
	"slices"
	"sort"
)

// stat is one metric of one workload across trials: the median with the
// quartiles and sample count beside it.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// quantile is the linear-interpolated q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func summarize(values []float64, unit string) stat {
	s := slices.Clone(values)
	sort.Float64s(s)
	return stat{
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: quantile(s, 0), Max: quantile(s, 1), N: len(s), Unit: unit,
	}
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		return -d
	}
	return d
}

// samples is a preallocated bag of uint32 measurements (ns, or stamp
// ticks). add drops what does not fit, so recording never allocates.
type samples struct {
	v       []uint32
	dropped int
}

func newSamples(capacity int) *samples { return &samples{v: make([]uint32, 0, capacity)} }

func (s *samples) add(x uint32) {
	if len(s.v) == cap(s.v) {
		s.dropped++
		return
	}
	s.v = append(s.v, x)
}

func (s *samples) reset() { s.v, s.dropped = s.v[:0], 0 }

func (s *samples) full() bool { return len(s.v) == cap(s.v) }

// percentiles sorts in place and returns the requested quantiles.
func (s *samples) percentiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(s.v) == 0 {
		return out
	}
	slices.Sort(s.v)
	for i, q := range qs {
		out[i] = float64(s.v[int(q*float64(len(s.v)-1))])
	}
	return out
}
