package policy

// The egress side of the policy layer. The four service disciplines the
// example applications used to hand-roll around internal/sched — strict
// priority, round-robin, weighted round-robin, and deficit round-robin —
// move behind the engine: each shard keeps an active-queue bitmap and
// serves flows by one of these kinds in O(1) amortized per pick, instead
// of callers polling Occupancy over the whole flow space. This file holds
// only the configuration vocabulary; the pickers live next to the bitmap
// in internal/engine.
//
// Scope: a discipline arbitrates among the flows of one shard; the engine
// rotates the starting shard per batch so shards share egress bandwidth
// evenly. Global priority ordering or exact global weight ratios hold
// only when the competing flows live on the same shard (one shard, or
// flow IDs that hash together).

import (
	"fmt"
	"math"
)

// EgressKind selects the integrated egress scheduler's discipline.
type EgressKind uint8

const (
	// EgressRR serves active flows in cyclic flow-ID order (the default).
	EgressRR EgressKind = iota
	// EgressPrio always serves the lowest-numbered active flow: flow 0 is
	// the highest priority, as in 802.1p class selection.
	EgressPrio
	// EgressWRR serves each active flow weight(q) packets per visit.
	EgressWRR
	// EgressDRR gives each active flow weight(q)*QuantumBytes of byte
	// credit per visit and serves head packets the credit covers, making
	// weighted sharing fair for variable-length packets.
	EgressDRR
)

// String returns the kind's flag spelling.
func (k EgressKind) String() string {
	switch k {
	case EgressRR:
		return "rr"
	case EgressPrio:
		return "prio"
	case EgressWRR:
		return "wrr"
	case EgressDRR:
		return "drr"
	}
	return fmt.Sprintf("egress(%d)", uint8(k))
}

// ParseEgressKind parses an -egress flag value.
func ParseEgressKind(s string) (EgressKind, error) {
	switch s {
	case "rr", "":
		return EgressRR, nil
	case "prio", "priority":
		return EgressPrio, nil
	case "wrr":
		return EgressWRR, nil
	case "drr":
		return EgressDRR, nil
	}
	return EgressRR, fmt.Errorf("policy: unknown egress discipline %q (want rr, prio, wrr, drr)", s)
}

// MaxLevelUnits bounds a LevelSpec's unit count: per-level scheduling
// state is allocated per (shard, port) unit, so each tier's unit space
// is a small configuration constant (802.1p needs 8 classes), not a
// dynamic resource.
const MaxLevelUnits = 256

// MaxWeight bounds a flow's or a level unit's WRR/DRR weight: the engine
// keeps them in 32 bits.
const MaxWeight = math.MaxInt32

// Tier names an intermediate scheduling tier, outermost first. The engine
// fixes the nesting order — tenants contain classes contain flows — so a
// configuration lists the tiers it wants and the order is implied. The
// value is the tier's index wherever per-tier state is kept.
type Tier uint8

const (
	// TierTenant is the outermost intermediate tier (SetFlowTenant
	// groups flows into tenants; every flow starts in tenant 0).
	TierTenant Tier = iota
	// TierClass is the inner intermediate tier (SetFlowClass groups
	// flows into classes; every flow starts in class 0).
	TierClass
	// NumTiers is the number of tiers.
	NumTiers
)

// String returns the tier's name.
func (t Tier) String() string {
	switch t {
	case TierTenant:
		return "tenant"
	case TierClass:
		return "class"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// LevelSpec configures one intermediate scheduling level of the egress
// hierarchy.
type LevelSpec struct {
	// Tier names the level: TierTenant or TierClass. Each tier may
	// appear at most once; tenants always sit outside classes.
	Tier Tier
	// Kind is the level's discipline (default round-robin).
	Kind EgressKind
	// Units is the tier's unit count — tenants per engine, classes per
	// port (at most MaxLevelUnits). 0 or 1 means the tier is flat: it
	// adds no scheduling level.
	Units int
	// Weights are the per-unit weights for level WRR (packets per
	// visit) and DRR (quantum multiplier); entries beyond the slice,
	// and zero entries, default to 1. Reconfigurable at runtime with
	// SetTierWeight.
	Weights []int
	// QuantumBytes is the DRR byte quantum per weight unit per visit at
	// this level (0 takes the flow-level QuantumBytes after its own
	// default).
	QuantumBytes int
}

// EgressConfig parameterizes the integrated egress scheduler. The zero
// value is flat round-robin (no intermediate levels).
//
// Levels turns the scheduler into a hierarchy: each listed tier with
// more than one unit adds a scheduling level above the flows, outermost
// first (tenant, then class), and Kind arbitrates among the flows of
// the winning innermost unit. The same four disciplines are available
// at every level through one implementation, so tenant-level WRR cannot
// drift from class- or flow-level WRR.
type EgressConfig struct {
	// Kind is the flow-level discipline (within the innermost picked
	// unit).
	Kind EgressKind
	// DefaultWeight is the weight of flows with no explicit weight set
	// (WRR packets per visit, DRR quantum multiplier). Default 1.
	DefaultWeight int
	// QuantumBytes is the DRR byte quantum earned per weight unit per
	// visit. Default 512.
	QuantumBytes int

	// Levels are the intermediate scheduling levels, one LevelSpec per
	// tier (nil or empty = flat). The unit counts are fixed at
	// construction; a later SetEgress with nil Levels leaves the
	// intermediate disciplines untouched, while a non-nil Levels must
	// list every active tier and replaces their disciplines.
	Levels []LevelSpec
}

// Level returns the spec for tier, or nil when the configuration does
// not mention it.
func (c *EgressConfig) Level(tier Tier) *LevelSpec {
	for i := range c.Levels {
		if c.Levels[i].Tier == tier {
			return &c.Levels[i]
		}
	}
	return nil
}

// Units returns tier's unit count: its LevelSpec's Units, or 1 — flat, no
// scheduling level — when the tier is absent or lists 0.
func (c *EgressConfig) Units(tier Tier) int {
	if ls := c.Level(tier); ls != nil && ls.Units > 1 {
		return ls.Units
	}
	return 1
}

// WithLevel returns a copy of the configuration with spec inserted,
// replacing any existing spec for the same tier and keeping the tenant
// tier outermost.
func (c EgressConfig) WithLevel(spec LevelSpec) EgressConfig {
	out := make([]LevelSpec, 0, len(c.Levels)+1)
	for _, ls := range c.Levels {
		if ls.Tier < spec.Tier {
			out = append(out, ls)
		}
	}
	out = append(out, spec)
	for _, ls := range c.Levels {
		if ls.Tier > spec.Tier {
			out = append(out, ls)
		}
	}
	c.Levels = out
	return c
}

// WithDefaults fills zero-valued fields. Levels is deep-copied before
// the per-level quantum defaults are filled, so the caller's slice is
// never mutated.
func (c EgressConfig) WithDefaults() EgressConfig {
	if c.DefaultWeight == 0 {
		c.DefaultWeight = 1
	}
	if c.QuantumBytes == 0 {
		c.QuantumBytes = 512
	}
	if len(c.Levels) > 0 {
		ls := make([]LevelSpec, len(c.Levels))
		copy(ls, c.Levels)
		for i := range ls {
			if ls[i].QuantumBytes == 0 {
				ls[i].QuantumBytes = c.QuantumBytes
			}
		}
		c.Levels = ls
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c EgressConfig) Validate() error {
	c = c.WithDefaults()
	if c.Kind > EgressDRR {
		return fmt.Errorf("policy: unknown egress kind %d", c.Kind)
	}
	if c.DefaultWeight < 0 {
		return fmt.Errorf("policy: negative egress default weight %d", c.DefaultWeight)
	}
	if c.QuantumBytes < 0 {
		return fmt.Errorf("policy: negative egress quantum %d", c.QuantumBytes)
	}
	for i, ls := range c.Levels {
		if ls.Tier >= NumTiers {
			return fmt.Errorf("policy: unknown egress tier %d (want %s or %s)", uint8(ls.Tier), TierTenant, TierClass)
		}
		if i > 0 && ls.Tier <= c.Levels[i-1].Tier {
			return fmt.Errorf("policy: %s level listed after %s level (each tier once, tenants outside classes)", ls.Tier, c.Levels[i-1].Tier)
		}
		if ls.Kind > EgressDRR {
			return fmt.Errorf("policy: unknown %s egress kind %d", ls.Tier, ls.Kind)
		}
		if ls.Units < 0 || ls.Units > MaxLevelUnits {
			return fmt.Errorf("policy: %s Units %d out of range [0, %d]", ls.Tier, ls.Units, MaxLevelUnits)
		}
		if ls.Units > 0 && len(ls.Weights) > ls.Units {
			return fmt.Errorf("policy: %d %s weights for %d units", len(ls.Weights), ls.Tier, ls.Units)
		}
		if ls.QuantumBytes < 0 {
			return fmt.Errorf("policy: negative %s egress quantum %d", ls.Tier, ls.QuantumBytes)
		}
		for i, w := range ls.Weights {
			if w < 0 || w > MaxWeight {
				return fmt.Errorf("policy: weight %d for %s %d out of range [0, %d]", w, ls.Tier, i, MaxWeight)
			}
		}
	}
	return nil
}
