// Package policy implements the pluggable buffer-management layer the
// paper's Section 1 motivates ("buffer and traffic management"): admission
// policies that decide the fate of an arriving packet given its queue's
// occupancy and the shared segment pool's pressure, and egress disciplines
// that decide which flow the integrated scheduler serves next.
//
// The admission side provides the three policies the shared-memory switch
// literature centers on for this hardware class:
//
//   - Tail-Drop: a per-queue segment cap plus the physical pool limit — the
//     baseline every AQM paper compares against (configuration only: the
//     rule is the engine's shard.overTailLimit);
//   - Longest Queue Drop (LQD): when the shared pool is exhausted the
//     arrival is admitted by pushing out the head packet of the longest
//     queue (Matsakis: LQD is 1.5-competitive for shared-memory switches);
//   - RED: random early detection over the pool occupancy — an EWMA average
//     with min/max thresholds and a linearly rising drop probability
//     (Floyd & Jacobson), using the uniform-spacing count correction.
//
// Admission instances are single-threaded state machines: the sharded
// engine builds one instance per shard and consults it under the shard
// lock, so policies may keep mutable state (RED's average, its PRNG)
// without any synchronization of their own.
package policy

import (
	"fmt"

	"npqm/internal/xrand"
)

// Verdict is an admission decision for one arriving packet.
type Verdict uint8

const (
	// Accept admits the packet as-is.
	Accept Verdict = iota
	// Drop refuses the arrival; the packet never enters the buffer.
	Drop
	// PushOut admits the arrival after evicting packets from the longest
	// queue until the pool has room (shared-buffer push-out).
	PushOut
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case Drop:
		return "drop"
	case PushOut:
		return "push-out"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// QueueState is what an admission policy sees about the target queue.
type QueueState struct {
	// Segments is the queue's current occupancy in linked segments.
	Segments int
}

// PoolState describes the shared segment pool the queue draws from (one
// shard's pool in the sharded engine).
type PoolState struct {
	// Free is the number of unallocated segments.
	Free int
	// Capacity is the total pool size in segments.
	Capacity int
}

// Admission decides accept/drop/push-out for each arriving packet.
// Implementations may keep mutable state and are not safe for concurrent
// use; callers serialize access (the engine holds the shard lock).
type Admission interface {
	// Admit decides the fate of a packet needing need segments that is
	// arriving on flow, given the flow's queue state and the pool state.
	Admit(flow uint32, need int, q QueueState, pool PoolState) Verdict
}

// Kind selects an admission policy family.
type Kind uint8

const (
	// KindNone disables policy admission: arrivals are only bounded by the
	// physical pool (and any per-flow segment caps set on the manager).
	KindNone Kind = iota
	// KindTailDrop drops arrivals beyond a per-queue segment cap or when
	// the pool is exhausted.
	KindTailDrop
	// KindLQD pushes out the longest queue's head packet to admit arrivals
	// when the pool is exhausted.
	KindLQD
	// KindRED drops arrivals probabilistically as the EWMA pool occupancy
	// rises between a min and max threshold.
	KindRED
)

// String returns the kind's flag spelling.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindTailDrop:
		return "tail"
	case KindLQD:
		return "lqd"
	case KindRED:
		return "red"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind parses a -policy flag value.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "none", "":
		return KindNone, nil
	case "tail", "taildrop":
		return KindTailDrop, nil
	case "lqd":
		return KindLQD, nil
	case "red":
		return KindRED, nil
	}
	return KindNone, fmt.Errorf("policy: unknown admission policy %q (want none, tail, lqd, red)", s)
}

// Config selects and parameterizes an admission policy. The zero value is
// KindNone. Threshold fields are fractions of pool capacity so one Config
// works across shards of different pool sizes.
type Config struct {
	Kind Kind
	// Limit is the Tail-Drop per-queue segment cap (0 = pool-limited only).
	Limit int
	// MinTh and MaxTh are the RED thresholds as fractions of pool capacity
	// in (0, 1]; defaults 0.25 and 0.75.
	MinTh, MaxTh float64
	// MaxP is the RED drop probability at MaxTh; default 0.1.
	MaxP float64
	// Weight is the RED EWMA weight w_q; default 0.002.
	Weight float64
	// Seed seeds RED's deterministic PRNG; default 1.
	Seed uint64
}

// withDefaults fills zero-valued RED parameters.
func (c Config) withDefaults() Config {
	if c.MinTh == 0 {
		c.MinTh = 0.25
	}
	if c.MaxTh == 0 {
		c.MaxTh = 0.75
	}
	if c.MaxP == 0 {
		c.MaxP = 0.1
	}
	if c.Weight == 0 {
		c.Weight = 0.002
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch c.Kind {
	case KindNone, KindLQD:
		return nil
	case KindTailDrop:
		if c.Limit < 0 {
			return fmt.Errorf("policy: negative tail-drop limit %d", c.Limit)
		}
		return nil
	case KindRED:
		if c.MinTh <= 0 || c.MaxTh > 1 || c.MinTh >= c.MaxTh {
			return fmt.Errorf("policy: RED thresholds need 0 < MinTh < MaxTh <= 1, got %g and %g", c.MinTh, c.MaxTh)
		}
		if c.MaxP <= 0 || c.MaxP > 1 {
			return fmt.Errorf("policy: RED MaxP must be in (0, 1], got %g", c.MaxP)
		}
		if c.Weight <= 0 || c.Weight > 1 {
			return fmt.Errorf("policy: RED Weight must be in (0, 1], got %g", c.Weight)
		}
		return nil
	}
	return fmt.Errorf("policy: unknown kind %d", c.Kind)
}

// New builds one admission instance from cfg. KindNone and KindTailDrop
// return (nil, nil): neither keeps state or weighs anything — tail-drop is
// two integer compares against cfg.Limit and the pool's free count, which
// the engine runs where it stands. Callers that shard the buffer build one
// instance per shard so state stays private.
func New(cfg Config) (Admission, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	switch cfg.Kind {
	case KindNone, KindTailDrop:
		return nil, nil
	case KindLQD:
		return &lqd{}, nil
	case KindRED:
		return &red{
			minTh: cfg.MinTh, maxTh: cfg.MaxTh,
			maxP: cfg.MaxP, wq: cfg.Weight,
			count: -1,
			rng:   xrand.New(cfg.Seed),
		}, nil
	}
	return nil, fmt.Errorf("policy: unknown kind %d", cfg.Kind)
}

// lqd admits every arrival the pool can ever hold, evicting from the
// longest queue when the pool is currently exhausted. Push-out keeps the
// buffer full of the packets a fair policy would have kept: the longest
// queue is, by the competitive argument, the one hoarding more than its
// share.
type lqd struct{}

func (l *lqd) Admit(_ uint32, need int, _ QueueState, pool PoolState) Verdict {
	if need > pool.Capacity {
		return Drop // can never fit, even with every other queue emptied
	}
	if need <= pool.Free {
		return Accept
	}
	return PushOut
}

// red is Random Early Detection over pool occupancy: the average occupancy
// fraction is an EWMA updated on every arrival; arrivals are dropped with
// probability rising linearly from 0 at minTh to maxP at maxTh (and always
// above maxTh), using the count correction that spaces drops uniformly.
type red struct {
	minTh, maxTh float64
	maxP         float64
	wq           float64

	avg   float64 // EWMA of occupied fraction
	count int     // arrivals since the last drop; -1 below minTh
	rng   *xrand.Source
}

func (r *red) Admit(_ uint32, need int, _ QueueState, pool PoolState) Verdict {
	occ := 0.0
	if pool.Capacity > 0 {
		occ = float64(pool.Capacity-pool.Free) / float64(pool.Capacity)
	}
	r.avg = (1-r.wq)*r.avg + r.wq*occ
	if need > pool.Free {
		return Drop // physical limit, regardless of the average
	}
	switch {
	case r.avg < r.minTh:
		r.count = -1
		return Accept
	case r.avg >= r.maxTh:
		r.count = 0
		return Drop
	}
	r.count++
	pb := r.maxP * (r.avg - r.minTh) / (r.maxTh - r.minTh)
	pa := pb
	if d := 1 - float64(r.count)*pb; d > 0 {
		pa = pb / d
	} else {
		pa = 1
	}
	if r.rng.Float64() < pa {
		r.count = 0
		return Drop
	}
	return Accept
}
