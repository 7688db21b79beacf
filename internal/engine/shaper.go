package engine

// The per-port token-bucket shaper. Time is a first-class resource here:
// a port earns rate bytes of credit per second of engine time (every now
// below is ns on the engine's clock, clock.go; the bucket reads no clock
// itself), banks at most burst bytes while idle, and transmits a packet
// only when the bucket is non-negative. The send itself may overdraw the
// bucket by up to one packet — the byte-accurate formulation that needs
// no packet-size foreknowledge: the debt delays the next send by exactly
// the overdrawn bytes' serialization time, so the long-run rate converges
// to the configured one for any packet mix.
//
// The bucket is shared between its port's pacer (the hot reader) and
// the control plane (SetPortRate, PortStats, which only reads it), so
// it carries its own mutex; the pacer takes it per service round (budget
// before the burst and after it) and per drained batch (one charge), far
// off the per-packet paths.

import (
	"sync"

	"npqm/internal/policy"
)

// unshapedBudget is the byte budget of a port that is not shaped, and the
// allowance of a pull: large enough never to bind.
const unshapedBudget = int64(1) << 62

type shaper struct {
	mu     sync.Mutex
	rate   int64 // bytes per second; 0 = unshaped
	burst  int64 // bucket depth in bytes
	tokens int64 // current credit; negative = in debt from the last send
	last   int64 // when tokens was last brought up to date
}

func newShaper(cfg policy.ShaperConfig, now int64) *shaper {
	sh := &shaper{}
	sh.configure(cfg, now)
	return sh
}

// configure swaps the rate/burst at runtime. The bucket starts full so a
// freshly shaped port may emit one burst immediately — the conventional
// token-bucket initial condition.
func (sh *shaper) configure(cfg policy.ShaperConfig, now int64) {
	cfg = cfg.WithDefaults()
	sh.mu.Lock()
	sh.rate = cfg.RateBytesPerSec
	sh.burst = cfg.BurstBytes
	sh.tokens = cfg.BurstBytes
	sh.last = now
	sh.mu.Unlock()
}

// tokensFor converts an elapsed interval (ns) to earned bytes. Exact integer
// arithmetic is used whenever ns × rate provably fits int64 (sub-second
// window × rate below 2^33 ≈ 8.6 GB/s: the product stays under
// 10^9 × 2^33 < 2^63); beyond that — long idle stretches or >8 GB/s
// line rates, where a byte of float rounding is invisible against the
// magnitudes involved — the conversion goes through float64 instead of
// wrapping negative.
func tokensFor(el, rate int64) int64 {
	if el <= 0 {
		return 0
	}
	if el <= second && rate < 1<<33 {
		return el * rate / second
	}
	return int64(float64(el) / float64(second) * float64(rate))
}

// refillLocked advances the bucket to now; caller holds sh.mu.
func (sh *shaper) refillLocked(now int64) {
	el := now - sh.last
	if el <= 0 {
		return
	}
	sh.last = now
	sh.tokens += tokensFor(el, sh.rate)
	if sh.tokens > sh.burst {
		sh.tokens = sh.burst
	}
}

// budget refills the bucket and returns how many bytes the port may
// transmit between now and now+horizon (current credit plus the credit
// the coming horizon will earn). When the answer is not positive, wait
// is the ns until it becomes so — the pacer parks the port on its
// wheel for that long. An unshaped bucket reports unshapedBudget, which no
// shaped one reaches.
func (sh *shaper) budget(now, horizon int64) (bytes, wait int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rate <= 0 {
		return unshapedBudget, 0
	}
	sh.refillLocked(now)
	b := sh.tokens + tokensFor(horizon, sh.rate)
	if b > 0 {
		return b, 0
	}
	return b, max((-b+1)*second/sh.rate, 1)
}

// charge debits transmitted bytes (the bucket may go negative). No-op
// when unshaped.
func (sh *shaper) charge(n int64) {
	if n <= 0 {
		return
	}
	sh.mu.Lock()
	if sh.rate > 0 {
		sh.tokens -= n
	}
	sh.mu.Unlock()
}

// occupancy snapshots the bucket for PortStats as a refill at now would
// leave it, without refilling: every refill rounds its earnings down to
// whole bytes, so a read that wrote the bucket would cost a port credit
// each time its stats were read.
func (sh *shaper) occupancy(now int64) (rate, burst, tokens int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tokens = sh.tokens
	if sh.rate > 0 {
		tokens = min(tokens+tokensFor(now-sh.last, sh.rate), sh.burst)
	}
	return sh.rate, sh.burst, tokens
}
