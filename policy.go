package npqm

// Facade over the policy layer: admission-policy and egress-discipline
// constructors re-exported so applications configure buffer management
// without importing internal packages. See internal/policy for semantics.

import (
	"npqm/internal/engine"
	"npqm/internal/policy"
)

// AdmissionConfig selects and parameterizes an admission policy; build one
// with TailDrop, LQD, or RED (the zero value admits everything the pool
// can hold). Policies consult the occupancy of the single shared segment
// pool: RED thresholds are fractions of the whole buffer, LQD evicts the
// globally longest queue wherever it lives, and tail-drop's pool check is
// pool-wide.
type AdmissionConfig = policy.Config

// EgressConfig parameterizes the integrated egress scheduler; build one
// with RoundRobinEgress, PriorityEgress, WRREgress, or DRREgress (the zero
// value is round-robin), and optionally layer class and tenant scheduling
// on top with ClassLayer and TenantLayer.
//
// Disciplines arbitrate within each shard; across shards, batches rotate
// the starting shard so every shard gets egress bandwidth. Strict global
// priority or exact global weight ratios therefore need the competing
// flows on one shard — use Shards: 1 or flow IDs that hash together.
// Class- and tenant-level arbitration has no such caveat when the units
// span flows of one shard's port unit; see examples/ethswitch for the
// 802.1p pattern and its two-tenant variant.
type EgressConfig = policy.EgressConfig

// LevelSpec configures one intermediate level (tenant or class) of the
// egress hierarchy; normally built through ClassLayer/TenantLayer.
type LevelSpec = policy.LevelSpec

// EgressKind names a scheduling discipline — used to pick the
// intermediate-level disciplines in ClassLayer and TenantLayer (the flow
// level is normally built with RoundRobinEgress and friends).
type EgressKind = policy.EgressKind

// Tier names an intermediate scheduling tier of the egress hierarchy.
type Tier = policy.Tier

// The tiers a LevelSpec can name, outermost first.
const (
	TierTenant = policy.TierTenant
	TierClass  = policy.TierClass
)

// The scheduling disciplines, re-exported for ClassLayer.
const (
	EgressRR   = policy.EgressRR
	EgressPrio = policy.EgressPrio
	EgressWRR  = policy.EgressWRR
	EgressDRR  = policy.EgressDRR
)

// DequeuedPacket is one served packet: its flow, its byte count, and its
// payload in the form the entry point delivers — Data (a pooled buffer to
// ReleaseBuffer) from the copy entry points, View (a PacketView to Release)
// from the view ones and to every push-mode sink. Exactly one of the two is
// set.
type DequeuedPacket = engine.Dequeued

// DequeuedView is DequeuedPacket under the name the view entry points use.
type DequeuedView = engine.DequeuedView

// Reservation is an open write-in-place ingest: fill the reserved segment
// slices through Range, then Commit (splice onto the queue) or Abort
// (return the segments). See ConcurrentQueueManager.ReservePacket.
type Reservation = engine.Reservation

// ShaperConfig parameterizes a port's token-bucket shaper; build one with
// PortShaper (the zero value is unshaped). The bucket earns
// RateBytesPerSec of credit per second up to BurstBytes and transmits
// only while non-negative, so a served port drains at line rate with at
// most one burst of slack.
type ShaperConfig = policy.ShaperConfig

// SinkV consumes the packets a served port transmits, as views — the one
// form of push-mode delivery. SendView may block (that is the backpressure
// path); returning an error or panicking stops the port's service. The
// engine releases its reference when SendView returns: asynchronous sinks
// Retain first, and a sink that wants contiguous bytes copies them out with
// d.View.AppendTo(buf). See ConcurrentQueueManager.ServeViews.
type SinkV = engine.SinkV

// SinkVFunc adapts a function to the SinkV interface.
type SinkVFunc = engine.SinkVFunc

// FlowInfo is one flow's port, tenant, class, weight, segment cap and live
// occupancy, read together by ConcurrentQueueManager.Flow.
type FlowInfo = engine.FlowInfo

// EngineConfig is the normalized engine configuration
// ConcurrentQueueManager.Config returns: shards rounded, defaults filled,
// tier unit counts readable as Egress.Units(TierTenant / TierClass).
type EngineConfig = engine.Config

// PortStat is one output port's transmit statistics (see PortStats).
type PortStat = engine.PortStat

// TierStat is one tenant's or one class's backlog statistics (see
// TierStats).
type TierStat = engine.TierStat

// PortShaper returns a token-bucket shaper configuration: rate is the
// sustained drain in bytes per second (0 = unshaped), burst the bucket
// depth in bytes (0 takes 10ms of rate, floored at 64KiB).
func PortShaper(rate, burst int64) ShaperConfig {
	return policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst}
}

// ErrAdmissionDrop is returned by enqueue paths when the admission policy
// refuses the arrival; classify with errors.Is. The drop is counted in
// EngineStats.DroppedPackets — it is policy behavior, not a caller error.
var ErrAdmissionDrop = engine.ErrAdmissionDrop

// TailDrop returns an admission policy that drops arrivals beyond a
// per-queue segment cap (0 = pool-limited only) or when the pool is full.
func TailDrop(limit int) AdmissionConfig {
	return policy.Config{Kind: policy.KindTailDrop, Limit: limit}
}

// LQD returns the Longest Queue Drop shared-buffer policy: when the pool
// is exhausted, arrivals are admitted by pushing out the head packet of
// the globally longest queue — on whichever shard it lives
// (1.5-competitive for shared-memory switches; the guarantee is stated
// for one global buffer, which the shared segment store provides).
func LQD() AdmissionConfig {
	return policy.Config{Kind: policy.KindLQD}
}

// RED returns a Random Early Detection policy over shared-pool occupancy.
// minTh and maxTh are occupancy fractions of the whole buffer in (0, 1];
// maxP is the drop probability at maxTh; weight is the EWMA weight. Zero
// values take the classic defaults (0.25, 0.75, 0.1, 0.002).
func RED(minTh, maxTh, maxP, weight float64) AdmissionConfig {
	return policy.Config{Kind: policy.KindRED, MinTh: minTh, MaxTh: maxTh, MaxP: maxP, Weight: weight}
}

// RoundRobinEgress serves active flows in cyclic flow-ID order.
func RoundRobinEgress() EgressConfig {
	return policy.EgressConfig{Kind: policy.EgressRR}
}

// PriorityEgress always serves the lowest-numbered active flow (flow 0 is
// the highest priority, as in 802.1p class selection).
func PriorityEgress() EgressConfig {
	return policy.EgressConfig{Kind: policy.EgressPrio}
}

// WRREgress serves each active flow its weight in packets per visit; set
// per-flow weights with SetWeight (defaultWeight covers the rest, 0 = 1).
func WRREgress(defaultWeight int) EgressConfig {
	return policy.EgressConfig{Kind: policy.EgressWRR, DefaultWeight: defaultWeight}
}

// DRREgress is deficit round-robin: each visit a flow earns
// quantumBytes*weight of byte credit and sends the head packets it covers,
// making weighted sharing fair for variable-length packets (0 = 512).
func DRREgress(quantumBytes int) EgressConfig {
	return policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: quantumBytes}
}

// ClassLayer layers a class scheduling level onto an egress
// configuration: flows are grouped into numClasses classes (SetFlowClass;
// every flow starts in class 0), kind arbitrates among a port's
// backlogged classes first, and cfg's own discipline then arbitrates
// among the flows of the winning class. weights, when given, are the
// per-class WRR/DRR weights (class index order; missing or zero entries
// default to 1). The class count is fixed at construction.
//
// 802.1p-style strict priorities become one line:
//
//	Egress: npqm.ClassLayer(npqm.RoundRobinEgress(), 8, npqm.EgressPrio)
func ClassLayer(cfg EgressConfig, numClasses int, kind EgressKind, weights ...int) EgressConfig {
	spec := policy.LevelSpec{Tier: policy.TierClass, Kind: kind, Units: numClasses}
	if len(weights) > 0 {
		spec.Weights = weights
	}
	return cfg.WithLevel(spec)
}

// TenantLayer layers a tenant scheduling level onto an egress
// configuration, outside any class level: flows are grouped into
// numTenants tenants (SetFlowTenant; every flow starts in tenant 0),
// kind arbitrates among a port's backlogged tenants first, and the rest
// of cfg's hierarchy — the optional class level, then the flow
// discipline — arbitrates within the winning tenant. weights, when
// given, are the per-tenant WRR/DRR weights (tenant index order;
// missing or zero entries default to 1). The tenant count is fixed at
// construction.
//
// A three-level tenant → class → flow hierarchy composes:
//
//	Egress: npqm.TenantLayer(
//	    npqm.ClassLayer(npqm.RoundRobinEgress(), 8, npqm.EgressPrio),
//	    4, npqm.EgressWRR, 3, 1, 1, 1)
func TenantLayer(cfg EgressConfig, numTenants int, kind EgressKind, weights ...int) EgressConfig {
	spec := policy.LevelSpec{Tier: policy.TierTenant, Kind: kind, Units: numTenants}
	if len(weights) > 0 {
		spec.Weights = weights
	}
	return cfg.WithLevel(spec)
}

// ConcurrentConfig sizes a policy-aware sharded engine for
// NewConcurrentEngine.
type ConcurrentConfig struct {
	// Flows is the flow-ID space (0 means 32K).
	Flows int
	// Segments is the shared segment pool all shards draw from (required).
	Segments int
	// Shards is the shard count (0 means 8; rounded up to a power of two).
	Shards int
	// Admission is the buffer admission policy (zero value: accept all).
	Admission AdmissionConfig
	// Egress is the integrated scheduler discipline (zero value: RR).
	Egress EgressConfig
	// Ports is the output-port count (0 means 1). Flows start on port 0;
	// SetFlowPort re-homes them, and ServeViews attaches a push-mode sink
	// per port.
	Ports int
	// PortRate is the token-bucket shaper installed on every port (zero
	// value: unshaped); reshape individual ports with SetPortRate.
	PortRate ShaperConfig
	// RingCapacity is the depth of the per-shard command ring EnqueueAsync
	// posts into after Start (0 means 1024; rounded up to a power of two).
	// A full ring applies backpressure to the poster.
	RingCapacity int
	// ResidenceSample enables residence-time sampling: every Nth packet
	// enqueued on a shard is stamped and its enqueue→dequeue time feeds
	// the EngineStats residence histogram (p50/p99/max). 0 disables.
	ResidenceSample int
}

// NewConcurrentEngine allocates a sharded queue manager with admission and
// egress policies threaded through the datapath. It is the one way to
// build the engine: a config that sets only Flows, Segments and Shards
// builds a policy-free one.
func NewConcurrentEngine(cfg ConcurrentConfig) (*ConcurrentQueueManager, error) {
	e, err := engine.New(engine.Config{
		Shards:          cfg.Shards,
		NumFlows:        cfg.Flows,
		NumSegments:     cfg.Segments,
		Admission:       cfg.Admission,
		Egress:          cfg.Egress,
		NumPorts:        cfg.Ports,
		PortRate:        cfg.PortRate,
		RingCapacity:    cfg.RingCapacity,
		ResidenceSample: cfg.ResidenceSample,
	})
	if err != nil {
		return nil, err
	}
	return &ConcurrentQueueManager{e}, nil
}
