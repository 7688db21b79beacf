package engine

// The per-port token-bucket shaper. Time is a first-class resource here:
// a port earns rate bytes of credit per second of engine time (every now
// below is ns on the engine's clock, clock.go; the bucket reads no clock
// itself), banks at most burst bytes while idle, and transmits a packet
// only when the bucket is non-negative. The send itself may overdraw the
// bucket by up to one packet — the byte-accurate formulation that needs
// no packet-size foreknowledge: the debt delays the next send by exactly
// the overdrawn bytes' serialization time, so the long-run rate converges
// to the configured one for any packet mix. Credit is exact: what a refill
// earns below a whole byte is carried to the next one in byte·ns, so
// however often the pacer refills, a port earns exactly rate bytes a
// second.
//
// The bucket is shared between the pacer (the hot reader) and
// the control plane (SetPortRate, PortStats, which only reads it), so
// it carries its own mutex; the pacer takes it per service round (budget
// before the burst and after it) and per drained batch (one charge), far
// off the per-packet paths.

import (
	"math/bits"
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
	frac   int64 // credit below a byte, in byte·ns: [0, second)
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
	sh.frac = 0
	sh.last = now
	sh.mu.Unlock()
}

// earn converts el ns at rate, on top of frac byte·ns already earned, to
// whole bytes and the byte·ns left below a byte. The product is taken in
// 128 bits, so the conversion is exact at every rate and interval and
// nothing is rounded away: earning a then b leaves what earning a+b does.
// A quotient of 2^63 or more (hi ≥ second/2) saturates; no bucket is that
// deep.
func earn(el, rate, frac int64) (bytes, rem int64) {
	if el <= 0 {
		return 0, frac
	}
	hi, lo := bits.Mul64(uint64(el), uint64(rate))
	lo, carry := bits.Add64(lo, uint64(frac), 0)
	if hi += carry; hi >= uint64(second)/2 {
		return 1<<63 - 1, 0
	}
	q, r := bits.Div64(hi, lo, uint64(second))
	return int64(q), int64(r)
}

// credit is the bucket el ns after it was last brought up to date, capped
// at the burst. A full bucket holds no fraction: credit past the burst,
// whole bytes and the rest alike, is forfeit.
func (sh *shaper) credit(el int64) (tokens, frac int64) {
	b, frac := earn(el, sh.rate, sh.frac)
	if b >= sh.burst-sh.tokens {
		return sh.burst, 0
	}
	return sh.tokens + b, frac
}

// refillLocked advances the bucket to now; caller holds sh.mu.
func (sh *shaper) refillLocked(now int64) {
	if el := now - sh.last; el > 0 {
		sh.last = now
		sh.tokens, sh.frac = sh.credit(el)
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
	ahead, _ := earn(horizon, sh.rate, sh.frac)
	b := sh.tokens + ahead
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
// leave it, without writing it: reading a port's stats is free of effect.
func (sh *shaper) occupancy(now int64) (rate, burst, tokens int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tokens = sh.tokens
	if sh.rate > 0 {
		tokens, _ = sh.credit(now - sh.last)
	}
	return sh.rate, sh.burst, tokens
}
