package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v", w.Var())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
	if w.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("empty Welford not zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Fatal("single-sample Welford wrong")
	}
}

// Property: Welford mean matches naive mean.
func TestWelfordMatchesNaive(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		// Filter non-finite fuzz inputs.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		naive := sum / float64(len(clean))
		return math.Abs(w.Mean()-naive) <= 1e-6*(1+math.Abs(naive))
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(int64(i%10) * 1000)
	}
	if h.N() != 100 {
		t.Fatalf("n = %d", h.N())
	}
	if m := h.Mean(); m != 4500 {
		t.Fatalf("mean = %v, want the exact 4500", m)
	}
	// The 50th of 100 samples is a 4000: its bucket's upper bound is at
	// most a quarter above it.
	if q := h.Quantile(0.5); q < 4000 || q > 5000 {
		t.Fatalf("median = %v", q)
	}
	if q := h.Quantile(1.0); q != 9000 {
		t.Fatalf("q100 = %v, want the maximum", q)
	}
	// Values below 8 have a bucket each.
	var small Histogram
	for v := int64(0); v < 8; v++ {
		small.Add(v)
	}
	for k := 1; k <= 8; k++ {
		if q := small.Quantile(float64(k) / 8); q != float64(k-1) {
			t.Fatalf("small q%d/8 = %v, want %d", k, q, k-1)
		}
	}
	if unsafe.Sizeof(h) > 2048 {
		t.Fatalf("a Histogram is %d bytes, want <= 2 KiB", unsafe.Sizeof(h))
	}
}

func TestHistogramOverflow(t *testing.T) {
	var h Histogram
	h.Add(5 << histMaxExp) // past the top bucket's lower bound
	h.Add(-5)              // counts as 0
	if h.N() != 2 {
		t.Fatalf("n = %d", h.N())
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("negative sample landed at %v, want 0", h.Quantile(0.5))
	}
	if h.Quantile(1.0) != 5<<histMaxExp {
		t.Fatalf("overflow quantile = %v, want the exact maximum", h.Quantile(1.0))
	}
	if h.Max() != 5<<histMaxExp {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.9) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram does not read 0")
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(Histogram).Quantile(1.5)
}

// TestHistogramQuantileError: over samples spread log-uniformly across
// eight decades, every quantile is at or above the exact order statistic
// and less than one sub-bucket (25%) beyond it, and the extremes are exact.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 100_000
	xs := make([]int64, n)
	var h Histogram
	var sum float64
	for i := range xs {
		xs[i] = int64(100 * math.Pow(1e8, rng.Float64())) // 100ns … 10s
		h.Add(xs[i])
		sum += float64(xs[i])
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1} {
		exact := float64(xs[max(int(math.Ceil(q*n)), 1)-1])
		if got := h.Quantile(q); got < exact || got >= 1.25*exact {
			t.Errorf("q%v = %v, exact order statistic %v: off by %+.1f%%", q, got, exact, 100*(got/exact-1))
		}
	}
	if got := h.Max(); got != float64(xs[n-1]) {
		t.Errorf("max = %v, want %v", got, xs[n-1])
	}
	if got := h.Mean(); got != sum/n {
		t.Errorf("mean = %v, want %v", got, sum/n)
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	if u.Value() != 0 {
		t.Fatal("empty utilization not 0")
	}
	for i := 0; i < 10; i++ {
		u.Tick(i < 3)
	}
	if math.Abs(u.Value()-0.3) > 1e-12 {
		t.Fatalf("value = %v", u.Value())
	}
	if math.Abs(u.Loss()-0.7) > 1e-12 {
		t.Fatalf("loss = %v", u.Loss())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(xs, 25); p != 2 {
		t.Fatalf("p25 = %v", p)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated input")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile not 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Fatal("single-element percentile wrong")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i & 1023))
	}
}

func TestWelfordMerge(t *testing.T) {
	var all, a, b Welford
	for i := 0; i < 500; i++ {
		x := float64(i%37) * 1.5
		all.Add(x)
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if d := a.Mean() - all.Mean(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("merged mean %v, want %v", a.Mean(), all.Mean())
	}
	if d := a.Var() - all.Var(); d > 1e-6 || d < -1e-6 {
		t.Fatalf("merged variance %v, want %v", a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merged min/max (%v, %v), want (%v, %v)", a.Min(), a.Max(), all.Min(), all.Max())
	}
	// Merging into an empty accumulator copies.
	var c Welford
	c.Merge(&a)
	if c.N() != a.N() || c.Mean() != a.Mean() {
		t.Fatal("merge into empty accumulator lost samples")
	}
}

func TestHistogramMerge(t *testing.T) {
	var all, a, b Histogram
	for i := 0; i < 400; i++ {
		x := int64(i%20) << (2 * (i % 21)) // some land in the top bucket
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() || b.N() != 200 {
		t.Fatalf("merged N = %d (source %d), want %d (200)", a.N(), b.N(), all.N())
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := a.Quantile(q), all.Quantile(q); got != want {
			t.Fatalf("merged q%.2f = %v, want %v", q, got, want)
		}
	}
	if a.Max() != all.Max() || a.Mean() != all.Mean() {
		t.Fatalf("merged max/mean %v/%v, want %v/%v", a.Max(), a.Mean(), all.Max(), all.Mean())
	}
}

// TestHistogramAddN: AddN(v, n) leaves a histogram as n calls of Add(v)
// would, for none, one and many samples, on top of samples already there.
func TestHistogramAddN(t *testing.T) {
	for _, v := range []int64{0, -3, 7, 1000, 1 << 45} {
		for _, n := range []uint64{0, 1, 100_000} {
			var got, want Histogram
			for i := range int64(10) {
				got.Add(i * 37)
				want.Add(i * 37)
			}
			got.AddN(v, n)
			for range n {
				want.Add(v)
			}
			if got.N() != want.N() || got.Mean() != want.Mean() || got.Max() != want.Max() {
				t.Fatalf("AddN(%d, %d): N %d mean %v max %v, want %d, %v, %v",
					v, n, got.N(), got.Mean(), got.Max(), want.N(), want.Mean(), want.Max())
			}
			for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
				if g, w := got.Quantile(q), want.Quantile(q); g != w {
					t.Fatalf("AddN(%d, %d): q%v = %v, want %v", v, n, q, g, w)
				}
			}
		}
	}
}
