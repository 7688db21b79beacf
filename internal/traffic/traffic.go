// Package traffic generates the synthetic network workloads the experiments
// and examples run: constant-bit-rate, Poisson and bursty on-off arrival
// processes over configurable packet-size mixes (64-byte worst case, IMIX),
// spread across many flows — the "large number of simultaneously active
// queues" premise of the paper's analysis.
package traffic

import (
	"fmt"

	"npqm/internal/xrand"
)

// Arrival is one generated packet.
type Arrival struct {
	TimeNs float64 // arrival time
	Flow   uint32  // flow (queue) index
	Bytes  int     // packet length
}

// SizeDist selects a packet-length distribution.
type SizeDist int

const (
	// Min64 is the paper's worst case: every packet 64 bytes.
	Min64 SizeDist = iota
	// IMIX is the simple IMIX as Ethernet frame sizes: 40-, 576- and
	// 1500-byte IP packets plus 18 bytes of header and FCS, the smallest
	// padded to the 64-byte minimum frame (64/594/1518 B, 7:4:1). SizeMix's
	// MixIMIX is the same mix as IP packets. Neither may change: the
	// examples' expected output (testdata/examples) is computed over this
	// mix.
	IMIX
	// Uniform draws uniformly in [64, 1518].
	Uniform
)

// String implements fmt.Stringer.
func (s SizeDist) String() string {
	switch s {
	case Min64:
		return "64B"
	case IMIX:
		return "imix"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("size-dist(%d)", int(s))
	}
}

// MeanBytes returns the distribution's mean packet length.
func (s SizeDist) MeanBytes() float64 {
	switch s {
	case Min64:
		return 64
	case IMIX:
		return (7*64 + 4*594 + 1*1518) / 12.0
	case Uniform:
		return (64 + 1518) / 2.0
	default:
		panic(fmt.Sprintf("traffic: unknown size distribution %d", int(s)))
	}
}

func (s SizeDist) draw(rng *xrand.Source) int {
	switch s {
	case Min64:
		return 64
	case IMIX:
		switch x := rng.Intn(12); {
		case x < 7:
			return 64
		case x < 11:
			return 594
		default:
			return 1518
		}
	case Uniform:
		return 64 + rng.Intn(1518-64+1)
	default:
		panic(fmt.Sprintf("traffic: unknown size distribution %d", int(s)))
	}
}

// Process selects the arrival process.
type Process int

const (
	// CBR spaces packets deterministically at the offered rate.
	CBR Process = iota
	// Poisson draws exponential inter-arrival gaps.
	Poisson
	// OnOff alternates geometric bursts at line rate with idle gaps,
	// producing the bursty arrivals the MMS FIFOs are there to smooth.
	OnOff
)

// String implements fmt.Stringer.
func (p Process) String() string {
	switch p {
	case CBR:
		return "cbr"
	case Poisson:
		return "poisson"
	case OnOff:
		return "on-off"
	default:
		return fmt.Sprintf("process(%d)", int(p))
	}
}

// Config describes a generator.
type Config struct {
	// RateGbps is the offered load.
	RateGbps float64
	// Flows is the number of active flows packets are spread over.
	Flows int
	// Sizes selects the packet-length mix.
	Sizes SizeDist
	// Proc selects the arrival process.
	Proc Process
	// BurstMean is the mean on-period burst length in packets for OnOff
	// (0 means 8).
	BurstMean int
	// PeakGbps is the instantaneous line rate during OnOff bursts
	// (0 means 4x RateGbps).
	PeakGbps float64
	// Seed drives all randomness.
	Seed uint64
}

// Generator produces a deterministic arrival stream.
type Generator struct {
	cfg     Config
	rng     *xrand.Source
	nowNs   float64
	inBurst int // packets remaining in the current on-period
}

// NewGenerator validates the configuration and returns a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.RateGbps <= 0 {
		return nil, fmt.Errorf("traffic: RateGbps must be positive, got %v", cfg.RateGbps)
	}
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("traffic: Flows must be positive, got %d", cfg.Flows)
	}
	if cfg.BurstMean == 0 {
		cfg.BurstMean = 8
	}
	if cfg.BurstMean < 0 {
		return nil, fmt.Errorf("traffic: negative BurstMean")
	}
	if cfg.PeakGbps == 0 {
		cfg.PeakGbps = 4 * cfg.RateGbps
	}
	if cfg.PeakGbps < cfg.RateGbps {
		return nil, fmt.Errorf("traffic: PeakGbps %v below RateGbps %v", cfg.PeakGbps, cfg.RateGbps)
	}
	return &Generator{cfg: cfg, rng: xrand.New(cfg.Seed)}, nil
}

// meanGapNs returns the average inter-packet gap at the offered rate.
func (g *Generator) meanGapNs(bytes int) float64 {
	return float64(bytes*8) / g.cfg.RateGbps
}

// Next returns the next arrival.
func (g *Generator) Next() Arrival {
	bytes := g.cfg.Sizes.draw(g.rng)
	switch g.cfg.Proc {
	case CBR:
		g.nowNs += g.meanGapNs(bytes)
	case Poisson:
		g.nowNs += g.rng.ExpFloat64(1 / g.meanGapNs(bytes)) // mean = meanGap
	case OnOff:
		peakGap := float64(bytes*8) / g.cfg.PeakGbps
		if g.inBurst > 0 {
			g.inBurst--
			g.nowNs += peakGap
		} else {
			// Idle long enough that the average rate matches RateGbps:
			// each burst of B packets at peak rate must be followed by
			// idle time covering the balance.
			b := g.rng.Geometric(1 / float64(g.cfg.BurstMean))
			burstNs := float64(b) * peakGap
			wantNs := float64(b) * g.meanGapNs(bytes)
			idle := wantNs - burstNs
			if idle < 0 {
				idle = 0
			}
			g.nowNs += idle + peakGap
			g.inBurst = b - 1
		}
	default:
		panic(fmt.Sprintf("traffic: unknown process %d", int(g.cfg.Proc)))
	}
	return Arrival{
		TimeNs: g.nowNs,
		Flow:   uint32(g.rng.Intn(g.cfg.Flows)),
		Bytes:  bytes,
	}
}

// Take returns the next n arrivals.
func (g *Generator) Take(n int) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// MeasuredGbps computes the average rate of an arrival slice.
func MeasuredGbps(arrivals []Arrival) float64 {
	if len(arrivals) < 2 {
		return 0
	}
	bits := 0
	for _, a := range arrivals {
		bits += a.Bytes * 8
	}
	span := arrivals[len(arrivals)-1].TimeNs - arrivals[0].TimeNs
	if span <= 0 {
		return 0
	}
	return float64(bits) / span
}
