package sim

import (
	"testing"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatal("zero Engine not clean")
	}
	fired := false
	e.After(5, func(now Time) { fired = true })
	e.Run()
	if !fired || e.Now() != 5 {
		t.Fatalf("fired=%v now=%d", fired, e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.At(10, func(Time) { order = append(order, 2) })
	e.At(5, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		e.At(7, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	var e Engine
	var times []Time
	e.At(1, func(now Time) {
		times = append(times, now)
		e.After(4, func(now Time) { times = append(times, now) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 5 {
		t.Fatalf("times = %v", times)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(3, func(Time) {})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i*10, func(Time) { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
	e.RunUntil(200)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	var e Engine
	e.RunUntil(123)
	if e.Now() != 123 {
		t.Fatalf("now = %d, want 123", e.Now())
	}
}

func TestTicker(t *testing.T) {
	var e Engine
	var ticks []Time
	e.Ticker(2, 3, func(now Time) bool {
		ticks = append(ticks, now)
		return len(ticks) < 4
	})
	e.Run()
	want := []Time{2, 5, 8, 11}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	e.Ticker(0, 0, func(Time) bool { return false })
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []Time {
		var e Engine
		var log []Time
		// Interleaved chains with equal timestamps.
		for c := 0; c < 4; c++ {
			e.Ticker(Time(c), 2, func(now Time) bool {
				log = append(log, now)
				return now < 40
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func BenchmarkEngineChurn(b *testing.B) {
	var e Engine
	e.Ticker(0, 1, func(now Time) bool { return now < Time(b.N) })
	e.Run()
}
