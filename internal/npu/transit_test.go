package npu

import (
	"math"
	"testing"

	"npqm/internal/traffic"
)

func TestRunTransitValidation(t *testing.T) {
	if _, err := RunTransit(TransitConfig{OfferedMbps: 0}); err == nil {
		t.Fatal("zero load accepted")
	}
}

// TestTransitBelowCapacity: well under the static limit the prototype
// forwards everything with low latency and proportional CPU use.
func TestTransitBelowCapacity(t *testing.T) {
	res, err := RunTransit(TransitConfig{Engine: WordCopy, OfferedMbps: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d frames at half capacity", res.Dropped)
	}
	if math.Abs(res.Delivered-50)/50 > 0.05 {
		t.Fatalf("delivered %v Mbps, want ~50", res.Delivered)
	}
	// CPU utilization should be about offered/capacity = 50/109.
	wantUtil := 50 / TransitMbps(WordCopy, ClockMHz)
	if math.Abs(res.CPUUtilization-wantUtil) > 0.08 {
		t.Fatalf("CPU util %.2f, want ~%.2f", res.CPUUtilization, wantUtil)
	}
	if res.MeanLatencyUs <= 0 || res.MeanLatencyUs > 50 {
		t.Fatalf("latency %v us implausible", res.MeanLatencyUs)
	}
	if res.P99LatencyUs < res.MeanLatencyUs {
		t.Fatal("p99 below mean")
	}
}

// TestTransitOverload: past capacity the prototype saturates — drops mount
// and carried load pins at the static TransitMbps value.
func TestTransitOverload(t *testing.T) {
	static := TransitMbps(WordCopy, ClockMHz)
	res, err := RunTransit(TransitConfig{Engine: WordCopy, OfferedMbps: 2 * static, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DropRate < 0.3 {
		t.Fatalf("drop rate %.2f at 2x capacity, expected heavy loss", res.DropRate)
	}
	if math.Abs(res.Delivered-static)/static > 0.06 {
		t.Fatalf("carried %v Mbps at overload, static model says %v", res.Delivered, static)
	}
	if res.CPUUtilization < 0.95 {
		t.Fatalf("CPU util %.2f at overload, expected saturation", res.CPUUtilization)
	}
}

// TestSaturationMatchesStaticModel: the dynamic saturation point of every
// copy engine — the offered load, found by bisection, at which the prototype
// starts dropping more than 0.5% — converges on the static TransitMbps
// prediction: the dynamic and analytic models agree.
func TestSaturationMatchesStaticModel(t *testing.T) {
	for _, engine := range CopyEngines() {
		static := TransitMbps(engine, ClockMHz)
		lo, hi := 10.0, 2000.0
		for i := 0; i < 18; i++ {
			mid := (lo + hi) / 2
			res, err := RunTransit(TransitConfig{
				Engine: engine, ClockMHz: ClockMHz, OfferedMbps: mid,
				Packets: 6000, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.DropRate > 0.005 {
				hi = mid
			} else {
				lo = mid
			}
		}
		dynamic := (lo + hi) / 2
		if rel := math.Abs(dynamic-static) / static; rel > 0.08 {
			t.Errorf("%v: dynamic saturation %.0f Mbps vs static %.0f (off %.0f%%)",
				engine, dynamic, static, rel*100)
		}
	}
}

// TestTransitBurstyTrafficNeedsHeadroom: at the same average load, bursty
// arrivals suffer higher latency than CBR and can drop even below nominal
// capacity — the reason the paper's rule of thumb needs margin.
func TestTransitBurstyTrafficNeedsHeadroom(t *testing.T) {
	load := 0.9 * TransitMbps(WordCopy, ClockMHz)
	cbr, err := RunTransit(TransitConfig{Engine: WordCopy, OfferedMbps: load, Seed: 5, Proc: traffic.CBR})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := RunTransit(TransitConfig{Engine: WordCopy, OfferedMbps: load, Seed: 5, Proc: traffic.OnOff})
	if err != nil {
		t.Fatal(err)
	}
	if bursty.MeanLatencyUs <= cbr.MeanLatencyUs {
		t.Fatalf("bursty latency %.1f us not above CBR %.1f us", bursty.MeanLatencyUs, cbr.MeanLatencyUs)
	}
	if bursty.DropRate < cbr.DropRate {
		t.Fatalf("bursty drop %.3f below CBR %.3f", bursty.DropRate, cbr.DropRate)
	}
}

// TestTransitLineCopyBeatsWordCopy dynamically, not just statically.
func TestTransitLineCopyBeatsWordCopy(t *testing.T) {
	load := 150.0 // between word capacity (~109) and line capacity (~210)
	word, err := RunTransit(TransitConfig{Engine: WordCopy, OfferedMbps: load, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	line, err := RunTransit(TransitConfig{Engine: LineCopy, OfferedMbps: load, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if word.DropRate < 0.2 {
		t.Fatalf("word copy should be overloaded at %v Mbps (drop %.3f)", load, word.DropRate)
	}
	if line.DropRate > 0.01 {
		t.Fatalf("line copy should carry %v Mbps cleanly (drop %.3f)", load, line.DropRate)
	}
}

// TestTransitDeterminism.
func TestTransitDeterminism(t *testing.T) {
	run := func() TransitResult {
		r, err := RunTransit(TransitConfig{Engine: WordCopy, OfferedMbps: 80, Seed: 11, Packets: 3000})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if run() != run() {
		t.Fatal("non-deterministic transit simulation")
	}
}

func BenchmarkRunTransit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunTransit(TransitConfig{Engine: WordCopy, OfferedMbps: 100, Packets: 2000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
