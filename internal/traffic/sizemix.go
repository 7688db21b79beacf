package traffic

// SizeMix is the packet-size counterpart of FlowDist: a deterministic
// per-worker picker for how large each generated packet is. Fixed-size
// payloads hide per-segment costs — an MTU packet spans ~24 segments where
// a 64-byte one spans 1 — so the load generators offer an IMIX blend
// alongside the fixed sizes the benchmarks historically used.

import "fmt"

// SizeMixKind selects the packet-size pattern.
type SizeMixKind int

const (
	// MixFixed returns the configured size for every packet.
	MixFixed SizeMixKind = iota
	// MixIMIX draws the simple IMIX as IP packet sizes: 576- and 1500-byte
	// packets with the 40-byte one raised to the 64-byte segment floor
	// (64/576/1500 B, 7:4:1). SizeDist's IMIX is the same mix as Ethernet
	// frames. Neither may change: bench/'s overload-lqd-steps delivery
	// digest is computed over this mix.
	MixIMIX
)

// String implements fmt.Stringer.
func (k SizeMixKind) String() string {
	switch k {
	case MixFixed:
		return "fixed"
	case MixIMIX:
		return "imix"
	default:
		return fmt.Sprintf("size-mix(%d)", int(k))
	}
}

// IMIX size/weight table (7:4:1 over 12 slots).
var (
	imixSizes   = [3]int{64, 576, 1500}
	imixBuckets = [3]uint32{7, 11, 12} // cumulative weights out of 12
)

// SizeMixConfig parameterizes a SizeMix.
type SizeMixConfig struct {
	// Kind selects the pattern (default MixFixed).
	Kind SizeMixKind
	// Fixed is the bytes per packet for MixFixed (required, > 0; ignored
	// for MixIMIX).
	Fixed int
	// Seed decorrelates pickers, as in FlowDistConfig.
	Seed uint64
}

// SizeMix is a deterministic single-goroutine packet-size picker.
type SizeMix struct {
	kind  SizeMixKind
	fixed int
	n     uint32
	base  uint32
}

// NewSizeMix validates cfg and returns a picker.
func NewSizeMix(cfg SizeMixConfig) (*SizeMix, error) {
	switch cfg.Kind {
	case MixFixed:
		if cfg.Fixed <= 0 {
			return nil, fmt.Errorf("traffic: MixFixed needs a positive size, got %d", cfg.Fixed)
		}
	case MixIMIX:
	default:
		return nil, fmt.Errorf("traffic: unknown SizeMixKind %d", int(cfg.Kind))
	}
	return &SizeMix{
		kind:  cfg.Kind,
		fixed: cfg.Fixed,
		base:  uint32(cfg.Seed) * 100_003,
	}, nil
}

// Next returns the next packet size in bytes.
func (d *SizeMix) Next() int {
	if d.kind == MixFixed {
		return d.fixed
	}
	// Same multiplicative scramble as FlowDist: deterministic per seed and
	// no random-number state. The residue is taken from the well-mixed
	// high bits, so long windows converge on exact 7:4:1 proportions.
	r := (((d.base + d.n) * 2654435761) >> 16) % 12
	d.n++
	switch {
	case r < imixBuckets[0]:
		return imixSizes[0]
	case r < imixBuckets[1]:
		return imixSizes[1]
	default:
		return imixSizes[2]
	}
}

// Max returns the largest size Next can return — what callers size their
// staging buffers to.
func (d *SizeMix) Max() int {
	if d.kind == MixFixed {
		return d.fixed
	}
	return imixSizes[2]
}

// Mean returns the expected packet size in bytes.
func (d *SizeMix) Mean() float64 {
	if d.kind == MixFixed {
		return float64(d.fixed)
	}
	return float64(7*imixSizes[0]+4*imixSizes[1]+1*imixSizes[2]) / 12
}
