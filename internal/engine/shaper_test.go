package engine

// Tests of the token bucket: its arithmetic at explicit engine times, and
// through a shaped port on the reference model.

import (
	"slices"
	"testing"

	"npqm/internal/policy"
)

const ms = pacerTick

// TestShaperHighRateRefillNoOverflow is the regression for the refill
// overflow: at rates above ~8.6 GB/s the exact ns×rate product no longer
// fits int64, so the conversion must switch to float64 instead of
// wrapping negative and stalling the port. 12.5 GB/s is 100 Gbps — a
// plausible modeled line rate well inside the validator's bound.
func TestShaperHighRateRefillNoOverflow(t *testing.T) {
	sh := newShaper(policy.ShaperConfig{RateBytesPerSec: 12_500_000_000, BurstBytes: 1 << 20}, 0)
	sh.charge(1<<20 + 1000) // drain the bucket into debt
	now := 900 * ms
	if b, wait := sh.budget(now, 0); b <= 0 || wait != 0 {
		t.Fatalf("100 Gbps shaper not ready after 900ms idle: budget %d, wait %dns", b, wait)
	}
	if _, burst, tokens := sh.occupancy(now); tokens != burst {
		t.Fatalf("bucket holds %d tokens after a long idle, want full burst %d", tokens, burst)
	}
}

// TestShaperPacingArithmetic: a 100-byte bucket at 1000 B/s sends a
// 700-byte packet at once (its credit and the first tick's byte), and the
// next on tick 600, the first whose budget — the 600 bytes of debt paid,
// plus a tick's earnings — is positive, after parking at the horizon twice
// on the way. Unshaped at tick 768, the third leaves on the next tick.
func TestShaperPacingArithmetic(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 256, NumSegments: 64,
		PortRate: policy.ShaperConfig{RateBytesPerSec: 1000, BurstBytes: 100}}, false,
		script{}.do(cEnqueue).w(0, 700).do(cEnqueue).w(0, 700).do(cEnqueue).w(0, 700).
			do(cServe, 0).rep(3, cClock, 255).do(cRate, 0, 0, 0).do(cClock, 0))
	var got []int64
	for _, d := range h.departed {
		got = append(got, d.tick)
	}
	if !slices.Equal(got, []int64{0, 600, 769}) || h.m.ports[0].throttled != 4 {
		t.Fatalf("departures on ticks %v after %d parks, want [0 600 769] after 4", got, h.m.ports[0].throttled)
	}
}
