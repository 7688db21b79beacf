package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values out of 1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not be a shifted copy of the parent stream.
	p := make([]uint64, 100)
	for i := range p {
		p[i] = parent.Uint64()
	}
	for i := 0; i < 100; i++ {
		v := child.Uint64()
		for _, pv := range p {
			if v == pv {
				t.Fatalf("child value %#x collides with parent stream", v)
			}
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(13)
	const lambda = 2.0
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64(lambda)
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.02 {
		t.Fatalf("exp mean = %v, want ~%v", mean, 1/lambda)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(17)
	const p = 0.25
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(s.Geometric(p))
	}
	mean := sum / n
	if math.Abs(mean-1/p) > 0.1 {
		t.Fatalf("geometric mean = %v, want ~%v", mean, 1/p)
	}
}

func TestGeometricDegenerate(t *testing.T) {
	s := New(19)
	for i := 0; i < 100; i++ {
		if g := s.Geometric(1); g != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", g)
		}
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	s := New(31)
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Choice(w)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(37)
	const p = 0.3
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bool(%v) frequency = %v", p, got)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}
