package main

import (
	"fmt"

	"npqm"
	"npqm/internal/traffic"
)

// Load shape shared by every workload, so numbers compare across hosts.
const (
	numFlows    = 32768
	numShards   = 4
	defaultPool = 131072 // segments
	ringCap     = 1024   // per-shard command ring; sizes the async staging ring below
	batchMax    = 64     // pull batch size outside the rtt phase
	window      = 32     // packets the producer stages, then offers, per backpressure check
)

type ingestKind int

const (
	ingestCopy    ingestKind = iota // EnqueuePacket
	ingestReserve                   // ReservePacket / Range / Commit
	ingestAsync                     // EnqueueAsync over the command ring
)

type deliverKind int

const (
	deliverCopy deliverKind = iota // DequeueNextBatch + ReleaseBuffer
	deliverView                    // DequeueNextViewBatch + ReleaseViews
	deliverPush                    // ServeViews sinks
)

// workload is one named set of inputs and engine configuration.
type workload struct {
	name string
	why  string

	sizes traffic.SizeMixKind
	fixed int // bytes per packet for MixFixed
	zipf  float64

	pool      int
	admission npqm.AdmissionConfig
	egress    npqm.EgressConfig
	ports     int
	portRate  int64 // bytes/s per port; 0 = unshaped
	ring      bool  // Start() the command-ring datapath

	ingest  ingestKind
	deliver deliverKind

	// mapFlow places flow f in the egress hierarchy during setup.
	mapFlow func(cm *npqm.ConcurrentQueueManager, f uint32) error

	// maxResident is the backpressure watermark: the producer waits while
	// more than this many segments are out of the free pool.
	maxResident int
	// stepped replaces the saturate phase with the single-goroutine
	// time-stepped loop: offerPerStep packets, then servePerStep.
	stepped                    bool
	offerPerStep, servePerStep int
	refSteps                   int // steps at refSeconds
	// pacedPPS is the open-loop rate of the paced phase (push only).
	pacedPPS int
	// allowGaps: push-out is configured, so sequence gaps are legal.
	allowGaps bool

	// schedWidths are the intermediate level widths for the sched replay,
	// outermost first; leafDRR is the flow discipline.
	schedWidths  []int32
	schedWeights [][]int64
	leafDRR      bool

	// refMpps is the issue's reference delivered_mpps on the 2-core host.
	refMpps float64
}

func (w *workload) maxSize() int {
	if w.sizes == traffic.MixIMIX {
		return 1500
	}
	return w.fixed
}

func (w *workload) maxSegs() int { return (w.maxSize() + npqm.SegmentBytes - 1) / npqm.SegmentBytes }

// refSeconds and refTrials are the run length and trial count the fixed
// step counts are stated for, and the defaults: 6 trials of 2 s saturate
// windows.
const (
	refSeconds = 16
	refTrials  = 6
)

var tenantWeights = []int{3, 1, 1, 1, 1, 1, 1, 1}
var classWeights = []int{4, 4, 2, 2, 1, 1, 1, 1}

func toInt64(in []int) []int64 {
	out := make([]int64, len(in))
	for i, v := range in {
		out[i] = int64(v)
	}
	return out
}

var workloads = []workload{
	{
		name:  "min64-sync-pull",
		why:   "bare forwarding at 64 B: per-packet fixed cost (engine dispatch, queue link/unlink, flat sched) is nearly all the work",
		fixed: 64, pool: defaultPool, egress: npqm.RoundRobinEgress(),
		ingest: ingestCopy, deliver: deliverCopy,
		maxResident: defaultPool * 7 / 8, refMpps: 1.65,
	},
	{
		name:  "mtu1500-view-pull",
		why:   "1500 B zero-copy: per-segment cost (segstore AllocN/FreeN/lend, queue chain build/consume) dominates, the engine copies nothing",
		fixed: 1500, pool: defaultPool, egress: npqm.RoundRobinEgress(),
		ingest: ingestReserve, deliver: deliverView,
		maxResident: defaultPool * 7 / 8, refMpps: 0.69,
	},
	{
		name:  "imix-zipf-ring-pull",
		why:   "IMIX, zipf 1.2 over the command ring: the only workload where ring, shard workers and completion wakes carry traffic; skew loads one shard",
		sizes: traffic.MixIMIX, zipf: 1.2, pool: defaultPool, egress: npqm.RoundRobinEgress(),
		ring: true, ingest: ingestAsync, deliver: deliverCopy,
		// Half the pool: what the rings can still hold in flight must fit in
		// the other half, see asyncMaxRing.
		maxResident: defaultPool / 2, refMpps: 0.95,
	},
	{
		name:  "hier3-drr-pull",
		why:   "min64-sync-pull plus tenant WRR -> class WRR -> flow DRR: sched.Stack at depth 3 is the only difference, so the pair isolates the scheduler",
		fixed: 64, pool: defaultPool,
		egress: npqm.TenantLayer(
			npqm.ClassLayer(npqm.DRREgress(512), 8, npqm.EgressWRR, classWeights...),
			8, npqm.EgressWRR, tenantWeights...),
		ingest: ingestCopy, deliver: deliverCopy,
		mapFlow: func(cm *npqm.ConcurrentQueueManager, f uint32) error {
			if err := cm.SetFlowTenant(f, int(f%8)); err != nil {
				return err
			}
			return cm.SetFlowClass(f, int((f/8)%8))
		},
		maxResident: defaultPool * 7 / 8,
		schedWidths: []int32{8, 64}, schedWeights: [][]int64{toInt64(tenantWeights), toInt64(classWeights)}, leafDRR: true,
		refMpps: 1.17,
	},
	{
		name:  "ports16-shaped-push",
		why:   "16 ports shaped to 2 MB/s each, ServeViews sinks: pacer, timing wheel and shaper do the work and the CPU is not the limit",
		fixed: 64, pool: defaultPool, egress: npqm.RoundRobinEgress(),
		ports: 16, portRate: 2_000_000,
		ingest: ingestCopy, deliver: deliverPush,
		mapFlow: func(cm *npqm.ConcurrentQueueManager, f uint32) error {
			return cm.SetFlowPort(f, int(f%16))
		},
		// A short standing queue: the shaper, not the pool, is the limit,
		// and the drain between phases stays under 70 ms.
		maxResident: 32768, pacedPPS: 250_000, refMpps: 0.508,
	},
	{
		name:  "overload-lqd-steps",
		why:   "IMIX zipf into an 8192-segment pool under LQD, single goroutine, 64 offered / 32 served per step: policy admission and queue push-out do most of the work, and loss and order repeat exactly",
		sizes: traffic.MixIMIX, zipf: 1.2, pool: 8192,
		admission: npqm.LQD(), egress: npqm.DRREgress(512),
		ingest: ingestCopy, deliver: deliverCopy,
		stepped: true, offerPerStep: 64, servePerStep: 32, refSteps: 40_000,
		allowGaps: true, leafDRR: true, refMpps: 0.55,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// build constructs the workload's engine through the public facade.
func (w *workload) build() (*npqm.ConcurrentQueueManager, error) {
	cfg := npqm.ConcurrentConfig{
		Flows:        numFlows,
		Segments:     w.pool,
		Shards:       numShards,
		Admission:    w.admission,
		Egress:       w.egress,
		Ports:        w.ports,
		RingCapacity: ringCap,
	}
	if w.portRate > 0 {
		cfg.PortRate = npqm.PortShaper(w.portRate, 0)
	}
	return npqm.NewConcurrentEngine(cfg)
}

// source turns the seed into the workload's packet sequence: flow and size
// from traffic.FlowDist / traffic.SizeMix, and a per-flow sequence number.
// The engine never sees the seed, only the packets.
type source struct {
	fd  *traffic.FlowDist
	mix *traffic.SizeMix
	seq []uint32
}

func newSource(w *workload, seed uint64) (*source, error) {
	fc := traffic.FlowDistConfig{Kind: traffic.FlowUniform, Flows: numFlows, Seed: seed}
	if w.zipf > 0 {
		fc.Kind, fc.Skew = traffic.FlowZipf, w.zipf
	}
	fd, err := traffic.NewFlowDist(fc)
	if err != nil {
		return nil, err
	}
	mix, err := traffic.NewSizeMix(traffic.SizeMixConfig{Kind: w.sizes, Fixed: w.fixed, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &source{fd: fd, mix: mix, seq: make([]uint32, numFlows)}, nil
}

// next draws the next packet's flow, size and sequence number.
func (s *source) next() (flow, seq uint32, size int) {
	flow = s.fd.Next()
	seq = s.seq[flow]
	s.seq[flow] = seq + 1
	return flow, seq, s.mix.Next()
}
