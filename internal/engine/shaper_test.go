package engine

// Tests of the token bucket: its arithmetic at explicit engine times, and
// through a shaped port on the reference model.

import (
	"math/rand"
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

// TestShaperCreditExactOverSplits: credit is exact, so refilling at a and
// then at a+b leaves the bucket — whole bytes and the fraction carried —
// where one refill at a+b does, whatever the rate, depth, debt and split,
// and the engine's bucket agrees with the model's at every step, down to
// the budget the coming tick adds to it.
func TestShaperCreditExactOverSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	span := func() int64 { // ns to hours, spread over the magnitudes
		return rng.Int63n(int64(1) << rng.Intn(44))
	}
	for i := 0; i < 20000; i++ {
		cfg := policy.ShaperConfig{
			RateBytesPerSec: 1 + rng.Int63n(int64(1)<<rng.Intn(41)),
			BurstBytes:      1 + rng.Int63n(int64(1)<<rng.Intn(40)),
		}
		start, a, b := span(), span(), span()
		debt := rng.Int63n(cfg.BurstBytes + 9000)
		split, whole := newShaper(cfg, start), newShaper(cfg, start)
		var ms, mw bucket
		ms.set(cfg, start)
		ms.tokens -= debt
		mw = ms
		split.charge(debt)
		whole.charge(debt)
		split.refillLocked(start + a)
		ms.refill(start + a)
		if split.tokens != ms.tokens || split.frac != ms.frac {
			t.Fatalf("%+v, debt %d, refill after %d ns: engine bucket %d B + %d B·ns, model %d + %d",
				cfg, debt, a, split.tokens, split.frac, ms.tokens, ms.frac)
		}
		split.refillLocked(start + a + b)
		whole.refillLocked(start + a + b)
		ms.refill(start + a + b)
		mw.refill(start + a + b)
		if split.tokens != whole.tokens || split.frac != whole.frac ||
			ms != mw || split.tokens != ms.tokens || split.frac != ms.frac {
			t.Fatalf("%+v, debt %d, refills after %d then %d ns: engine %d B + %d B·ns split, %d + %d whole; model %d + %d split, %d + %d whole",
				cfg, debt, a, b, split.tokens, split.frac, whole.tokens, whole.frac, ms.tokens, ms.frac, mw.tokens, mw.frac)
		}
		// The coming tick's credit counts the carried fraction too.
		now := start + a + b
		got, gotWait := split.budget(now, pacerTick)
		if want, wantWait := ms.budget(now); got != want || gotWait != wantWait {
			t.Fatalf("%+v, debt %d, at %d ns: engine budget %d B (wait %d ns), model %d B (wait %d ns)",
				cfg, debt, now, got, gotWait, want, wantWait)
		}
	}
}
