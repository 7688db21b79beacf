package engine

// Unit tests of the token bucket, driven with explicit engine times.

import (
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

func TestShaperPacingArithmetic(t *testing.T) {
	sh := newShaper(policy.ShaperConfig{RateBytesPerSec: 1000, BurstBytes: 100}, 0)
	// budget with no horizon reads the bucket itself: positive credit may
	// transmit, anything else waits for the first byte of credit.
	wait := func(now int64) int64 {
		_, w := sh.budget(now, 0)
		return w
	}
	// Fresh bucket is full: ready immediately.
	if b, w := sh.budget(0, 0); b != 100 || w != 0 {
		t.Fatalf("fresh bucket: budget %d wait %d, want 100, 0", b, w)
	}
	// 600 bytes of debt beyond the 100-byte burst → 500 bytes short, one
	// more to be positive → 501ms at 1000 B/s.
	sh.charge(600)
	if w := wait(0); w != 501*ms {
		t.Fatalf("wait = %dns, want 501ms", w)
	}
	// Half the wait elapses: half the debt remains.
	if w := wait(250 * ms); w != 251*ms {
		t.Fatalf("wait after 250ms = %dns, want 251ms", w)
	}
	// Debt repaid exactly: an empty bucket still waits for its first byte.
	if w := wait(500 * ms); w != 1*ms {
		t.Fatalf("wait after 500ms = %dns, want 1ms", w)
	}
	if w := wait(501 * ms); w != 0 {
		t.Fatalf("wait after 501ms = %dns, want 0", w)
	}
	// The horizon's credit counts: 100 bytes short is ready 100ms ahead.
	sh.charge(101)
	if b, w := sh.budget(501*ms, 100*ms); b != 0 || w != 1*ms {
		t.Fatalf("budget over a 100ms horizon = %d, wait %d, want 0, 1ms", b, w)
	}
	if b, _ := sh.budget(501*ms, 200*ms); b != 100 {
		t.Fatalf("budget over a 200ms horizon = %d, want 100", b)
	}
	// An unshaped reconfiguration is always ready and never charges.
	sh.configure(policy.ShaperConfig{}, 501*ms)
	sh.charge(1 << 30)
	if b, w := sh.budget(501*ms, 0); b <= 0 || w != 0 {
		t.Fatalf("unshaped bucket not ready: budget %d wait %d", b, w)
	}
}
