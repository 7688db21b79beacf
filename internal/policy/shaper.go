package policy

// Shaper configuration — the egress-side counterpart of the admission
// policies. A port's transmit path drains through a token bucket: the
// bucket earns RateBytesPerSec of credit per second up to BurstBytes, and
// a packet is transmitted only when the bucket is non-negative (the send
// itself may overdraw by less than one packet, the classic byte-accurate
// formulation). This file holds only the configuration vocabulary; the
// bucket lives with the ports in internal/engine (shaper.go).

import "fmt"

// MaxShaperRate bounds RateBytesPerSec to a sane ceiling (one TB/s, far
// beyond any modeled line rate). The token arithmetic takes its products
// in 128 bits, so no rate the validator admits can overflow a refill
// computation.
const MaxShaperRate = int64(1) << 40

// ShaperConfig parameterizes one port's token-bucket shaper. The zero
// value is unshaped (the port drains as fast as its sink accepts).
type ShaperConfig struct {
	// RateBytesPerSec is the sustained drain rate in bytes per second.
	// 0 disables shaping.
	RateBytesPerSec int64
	// BurstBytes is the bucket depth: the largest credit the port can
	// bank while idle, i.e. the largest back-to-back burst it may emit at
	// line speed. 0 defaults to 10ms worth of rate, floored at 64KiB so
	// jumbo frames cannot stall a slow port.
	BurstBytes int64
}

// Enabled reports whether the configuration actually shapes.
func (c ShaperConfig) Enabled() bool { return c.RateBytesPerSec > 0 }

// WithDefaults fills zero-valued fields (no-op when unshaped).
func (c ShaperConfig) WithDefaults() ShaperConfig {
	if c.RateBytesPerSec > 0 && c.BurstBytes == 0 {
		c.BurstBytes = c.RateBytesPerSec / 100 // 10ms of credit
		if c.BurstBytes < 64*1024 {
			c.BurstBytes = 64 * 1024
		}
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c ShaperConfig) Validate() error {
	if c.RateBytesPerSec < 0 {
		return fmt.Errorf("policy: negative shaper rate %d", c.RateBytesPerSec)
	}
	if c.RateBytesPerSec > MaxShaperRate {
		return fmt.Errorf("policy: shaper rate %d exceeds max %d", c.RateBytesPerSec, MaxShaperRate)
	}
	if c.BurstBytes < 0 {
		return fmt.Errorf("policy: negative shaper burst %d", c.BurstBytes)
	}
	if c.RateBytesPerSec == 0 && c.BurstBytes != 0 {
		return fmt.Errorf("policy: shaper burst %d without a rate", c.BurstBytes)
	}
	return nil
}
