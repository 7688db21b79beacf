// Command qmsim runs a single parameterized experiment from the paper's
// models and prints CSV, for sweeps beyond the published configurations.
//
// Usage:
//
//	qmsim -model ddr    -banks 8 -sched reorder -rw -decisions 500000
//	qmsim -model mms    -load 5.5 -segments 5 -depth 2
//	qmsim -model ixp    -queues 128 -engines 4
//	qmsim -model npu    -copy line -clock 200
//	qmsim -model engine -shards 16 -parallel 8 -flows 32768 -ops 2000000
//	qmsim -model engine -policy lqd -pool 4096 -egress drr -ops 500000
//	qmsim -model engine -policy lqd -pool 8192 -zipf 1.2 -ops 500000
//	qmsim -model engine -datapath ring -shards 16 -parallel 8 -residence 64
//	qmsim -delivery view -pkt 1500 -ops 2000000
//	qmsim -ports 4 -rate 125000000 -egress drr
//	qmsim -classes 8 -class-egress wrr -class-weights 4,4,2,2,1,1,1,1
//	qmsim -tenants 4 -tenant-egress wrr -tenant-weights 3,1,1,1 -classes 8
//
// Any engine flag (usage "engine: ...") implies -model engine, so the
// engine invocations can leave -model out.
//
// -ports and -rate select the push-mode transmit path: flows are spread
// across N output ports (flow % N), each port is served push-mode
// (engine.ServeViews, paced by the engine's one timing-wheel pacer) and — with
// -rate — a token-bucket shaper of that many bytes per second (-burst
// overrides the bucket depth), modeling shaped uplinks instead of an
// unbounded consumer loop. The CSV then grows a per-port block:
// transmissions, throttle waits, shaper credit, and achieved Gbps per
// port.
//
// -classes layers a class scheduling level over the flow level: flows are
// spread across N classes (flow % N), -class-egress picks the discipline
// arbitrating among a port's backlogged classes (the -egress discipline
// then arbitrates within the winning class), and -class-weights sets the
// per-class WRR/DRR weights. The CSV grows a per-class block mirroring
// the per-port one: deliveries, bytes, and the achieved share per class
// — full-run (which converges to the admission mix once the end-of-run
// drain completes) and at the end-of-offer cutoff, where the level
// discipline's weighted shares are visible.
//
// -tenants layers a tenant level outside the class level, completing the
// three-deep tenant → class → flow hierarchy: flows are spread across N
// tenants ((flow / classes) % N, so tenants cut across classes),
// -tenant-egress picks the tenant-level discipline and -tenant-weights
// the per-tenant WRR/DRR weights. The CSV grows a per-tenant block
// mirroring the per-class one.
//
// -delivery selects how packets cross the engine boundary: "copy"
// reassembles each packet into a pooled buffer on dequeue and copies the
// payload on enqueue; "view" runs the zero-copy pipeline — producers
// reserve segment runs and fill them in place (ReservePacket), consumers
// and port sinks read segment-chain views released back to the pool in
// bulk. The copied_bytes CSV column prices the difference: it is exactly
// 0 in a pure view run. Push-mode delivery is views either way; under
// "copy" the port sinks copy each payload out of its view themselves.
//
// The engine's segment pool is one shared buffer: -limit, -minth/-maxth and
// LQD eviction are pool-wide, and a skewed workload (-zipf > 1 concentrates
// traffic on few flows) can push one flow to nearly the whole pool.
//
// -datapath selects how producers enqueue: "sync" locks the owning shard
// per call; "ring" starts the engine and posts enqueues into per-shard
// command rings (the paper's command-FIFO structure) that whoever takes
// the shard's lock next — usually a consumer — executes. The CSV reports
// the command-ring peak occupancy and the blocking-enqueue latency either
// way (the occupancy is zero on the sync path).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"npqm/internal/core"
	"npqm/internal/ddr"
	"npqm/internal/engine"
	"npqm/internal/ixp"
	"npqm/internal/npu"
	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/stats"
	"npqm/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "qmsim: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected model and writes its CSV to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("qmsim", flag.ExitOnError)
	var (
		model     = fs.String("model", "mms", "model to run: ddr, mms, ixp, npu, engine")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		banks     = fs.Int("banks", 8, "ddr: bank count")
		schedName = fs.String("sched", "reorder", "ddr: scheduler (fcfs, reorder)")
		rw        = fs.Bool("rw", false, "ddr: enable write-after-read turnaround")
		lookahead = fs.Int("lookahead", 1, "ddr: reorder lookahead depth")
		decisions = fs.Int("decisions", 400_000, "ddr: scheduling decisions")
		load      = fs.Float64("load", 4.8, "mms: offered load in Gbps")
		segments  = fs.Int("segments", 5, "mms: segments per packet burst")
		depth     = fs.Int("depth", 2, "mms: per-port FIFO depth")
		queues    = fs.Int("queues", 128, "ixp: queue count")
		engines   = fs.Int("engines", 6, "ixp: microengine count")
		copyEng   = fs.String("copy", "word", "npu: copy engine (word, line, dma)")
		clock     = fs.Float64("clock", 100, "npu: CPU clock in MHz")
		shards    = fs.Int("shards", 16, "engine: shard count (rounded to power of two)")
		parallel  = fs.Int("parallel", 4, "engine: producer goroutines (consumers match)")
		flows     = fs.Int("flows", 32768, "engine: flow-ID space")
		pool      = fs.Int("pool", 1<<17, "engine: total segment pool")
		pktBytes  = fs.Int("pkt", 320, "engine: packet size in bytes (fixed mix)")
		pktMix    = fs.String("pktmix", "fixed", "engine: packet-size mix (fixed = every packet -pkt bytes, imix = 64/576/1500 weighted 7:4:1)")
		ops       = fs.Int("ops", 1_000_000, "engine: packets to push through")
		polName   = fs.String("policy", "none", "engine: admission policy (none, tail, lqd, red)")
		limit     = fs.Int("limit", 0, "engine: tail-drop per-flow segment cap (0 = pool only)")
		minth     = fs.Float64("minth", 0.25, "engine: RED min threshold (fraction of pool)")
		maxth     = fs.Float64("maxth", 0.75, "engine: RED max threshold (fraction of pool)")
		maxp      = fs.Float64("maxp", 0.1, "engine: RED max drop probability")
		wq        = fs.Float64("wq", 0.002, "engine: RED EWMA weight")
		egName    = fs.String("egress", "rr", "engine: egress discipline (rr, prio, wrr, drr)")
		quantum   = fs.Int("quantum", 512, "engine: DRR byte quantum per weight unit")
		burst     = fs.Int("burst", 1, "engine: packets per flow burst (bursty arrivals)")
		zipf      = fs.Float64("zipf", 0, "engine: Zipf skew exponent for flow selection (0 = uniform stride, >1 = skewed)")
		datapath  = fs.String("datapath", "sync", "engine: datapath (sync = lock per call, ring = posted enqueues through command rings)")
		delivery  = fs.String("delivery", "copy", "engine: delivery mode (copy = reassembled pooled buffers, view = zero-copy segment views with write-in-place ingest)")
		ringCap   = fs.Int("ringcap", 0, "engine: per-shard command-ring capacity (0 = default 1024)")
		residence = fs.Int("residence", 0, "engine: sample every Nth packet's enqueue→dequeue residence time (0 = off)")
		ports     = fs.Int("ports", 1, "engine: output ports (flows spread flow %% N; >1 or -rate switches egress to push delivery, every port served by the one pacer)")
		rate      = fs.Int64("rate", 0, "engine: per-port shaper rate in bytes/sec (0 = unshaped)")
		burstB    = fs.Int64("burst-bytes", 0, "engine: per-port shaper bucket depth in bytes (0 = 10ms of rate)")
		classes   = fs.Int("classes", 0, "engine: scheduling classes layered over the flow level (0/1 = flat; flows spread flow %% N)")
		classEg   = fs.String("class-egress", "rr", "engine: class-level discipline (rr, prio, wrr, drr)")
		classW    = fs.String("class-weights", "", "engine: comma-separated per-class WRR/DRR weights (missing entries = 1)")
		tenants   = fs.Int("tenants", 0, "engine: scheduling tenants layered outside the class level (0/1 = flat; flows spread (flow / classes) %% N)")
		tenantEg  = fs.String("tenant-egress", "rr", "engine: tenant-level discipline (rr, prio, wrr, drr)")
		tenantW   = fs.String("tenant-weights", "", "engine: comma-separated per-tenant WRR/DRR weights (missing entries = 1)")
	)
	fs.Parse(args) // ExitOnError: a bad flag does not return
	// An engine-only flag implies -model engine. The usage strings say
	// which flags those are, so there is no second list to keep in step.
	var modelSet, engineFlag bool
	fs.Visit(func(f *flag.Flag) {
		modelSet = modelSet || f.Name == "model"
		engineFlag = engineFlag || strings.HasPrefix(f.Usage, "engine:")
	})
	if engineFlag && !modelSet {
		*model = "engine"
	}

	switch *model {
	case "ddr":
		return runDDR(w, *banks, *schedName, *rw, *lookahead, *seed, *decisions)
	case "mms":
		return runMMS(w, *load, *segments, *depth, *seed)
	case "ixp":
		return runIXP(w, *queues, *engines)
	case "npu":
		return runNPU(w, *copyEng, *clock)
	case "engine":
		return runEngine(w, engineArgs{
			shards: *shards, parallel: *parallel, flows: *flows, pool: *pool,
			pktBytes: *pktBytes, pktMix: *pktMix, ops: *ops, seed: *seed,
			policy: *polName, limit: *limit,
			minth: *minth, maxth: *maxth, maxp: *maxp, wq: *wq,
			egress: *egName, quantum: *quantum, burst: *burst,
			zipf:     *zipf,
			datapath: *datapath, delivery: *delivery, ringCap: *ringCap, residence: *residence,
			ports: *ports, rate: *rate, burstBytes: *burstB,
			tiers: [policy.NumTiers]tierArgs{
				policy.TierTenant: {*tenants, *tenantEg, *tenantW},
				policy.TierClass:  {*classes, *classEg, *classW},
			},
		})
	}
	return fmt.Errorf("unknown model %q (want ddr, mms, ixp, npu, engine)", *model)
}

func runDDR(w io.Writer, banks int, schedName string, rw bool, lookahead int, seed uint64, decisions int) error {
	var sched ddr.SchedulerKind
	switch schedName {
	case "fcfs":
		sched = ddr.FCFSRoundRobin
	case "reorder":
		sched = ddr.Reorder
	default:
		return fmt.Errorf("unknown scheduler %q", schedName)
	}
	res, err := ddr.RunSaturated(ddr.Config{
		Banks: banks, Scheduler: sched, RWInterleave: rw, LookAhead: lookahead,
	}, seed, decisions)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "banks,scheduler,rw,lookahead,loss,utilization,goodput_gbps,conflict_halfslots,turnaround_halfslots")
	fmt.Fprintf(w, "%d,%s,%v,%d,%.4f,%.4f,%.3f,%d,%d\n",
		banks, sched, rw, lookahead, res.Loss, res.Utilization, res.GoodputGbps(),
		res.ConflictStalls, res.TurnaroundStalls)
	return nil
}

func runMMS(w io.Writer, load float64, segments, depth int, seed uint64) error {
	p, err := core.RunLoad(core.LoadConfig{
		LoadGbps:       load,
		PacketSegments: segments,
		Seed:           seed,
		MMS:            core.Config{FIFODepth: depth},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "load_gbps,fifo_cycles,exec_cycles,data_cycles,total_cycles,achieved_gbps,bank_conflict_rate")
	fmt.Fprintf(w, "%.2f,%.1f,%.1f,%.1f,%.1f,%.3f,%.3f\n",
		p.LoadGbps, p.FIFODelay, p.ExecDelay, p.DataDelay, p.TotalDelay, p.AchievedGbps, p.BankConflict)
	return nil
}

func runIXP(w io.Writer, queues, engines int) error {
	p, err := ixp.ProfileForQueues(queues)
	if err != nil {
		return err
	}
	res, err := ixp.Run(ixp.Config{Profile: p, Engines: engines})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "queues,engines,kpps,mbps_at_64B,scratch_busy,sram_busy,sdram_busy")
	fmt.Fprintf(w, "%d,%d,%.1f,%.1f,%.3f,%.3f,%.3f\n",
		queues, engines, res.Kpps, res.MbpsAt64B(),
		res.UnitBusy[ixp.Scratch], res.UnitBusy[ixp.SRAM], res.UnitBusy[ixp.SDRAM])
	return nil
}

type engineArgs struct {
	shards, parallel, flows, pool, pktBytes, ops int
	pktMix                                       string
	seed                                         uint64
	policy                                       string
	limit                                        int
	minth, maxth, maxp, wq                       float64
	egress                                       string
	quantum                                      int
	burst                                        int
	zipf                                         float64
	datapath                                     string
	delivery                                     string
	ringCap                                      int
	residence                                    int
	ports                                        int
	rate, burstBytes                             int64
	tiers                                        [policy.NumTiers]tierArgs
}

// tierArgs are one scheduling tier's flags: -classes/-class-egress/
// -class-weights, or the tenant three.
type tierArgs struct {
	units           int
	egress, weights string
}

// parseLevelWeights turns "-class-weights 4,4,2,2" (or the tenant
// equivalent) into the per-unit weight slice the egress config takes
// (unit index order).
func parseLevelWeights(s string, tier policy.Tier, units int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > units {
		return nil, fmt.Errorf("%d %s weights for %d units", len(parts), tier, units)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s weight %q: %w", tier, p, err)
		}
		out[i] = w
	}
	return out, nil
}

// compLatEvery is how often a producer swaps a fire-and-forget post for a
// blocking enqueue to sample command completion latency.
const compLatEvery = 512

// runEngine drives the sharded concurrent engine: parallel producers offer
// packets across the flow space while matching consumers drain through the
// integrated egress scheduler, with the selected admission policy deciding
// drops under pool pressure. The CSV reports goodput plus the policy
// columns (drops, push-outs, peak occupancy), the ring-datapath telemetry
// (peak command-ring occupancy, completion latency), and the residence
// quantiles when -residence is set — shrink -pool to put the admission
// policy under stress.
func runEngine(w io.Writer, a engineArgs) error {
	if a.parallel < 1 {
		return fmt.Errorf("parallel must be >= 1, got %d", a.parallel)
	}
	if a.ops < 1 {
		return fmt.Errorf("ops must be >= 1, got %d", a.ops)
	}
	if a.pktBytes < 1 {
		return fmt.Errorf("pkt must be >= 1, got %d", a.pktBytes)
	}
	var mixKind traffic.SizeMixKind
	switch a.pktMix {
	case "", "fixed":
		mixKind = traffic.MixFixed
	case "imix":
		mixKind = traffic.MixIMIX
	default:
		return fmt.Errorf("unknown pktmix %q (want fixed or imix)", a.pktMix)
	}
	// One probe instance sizes the shared payload buffer and prices the
	// bytes columns; producers draw their own seeded instances.
	mixProbe, err := traffic.NewSizeMix(traffic.SizeMixConfig{
		Kind: mixKind, Fixed: a.pktBytes, Seed: a.seed,
	})
	if err != nil {
		return err
	}
	if a.burst < 1 {
		a.burst = 1
	}
	if a.zipf != 0 && a.zipf <= 1 {
		return fmt.Errorf("zipf exponent must be > 1 (or 0 for uniform), got %g", a.zipf)
	}
	var ringMode bool
	switch a.datapath {
	case "sync":
	case "ring":
		ringMode = true
	default:
		return fmt.Errorf("unknown datapath %q (want sync or ring)", a.datapath)
	}
	// -delivery view swaps both ends of the datapath for the zero-copy
	// pipeline: producers reserve segment runs and fill them in place
	// (never handing the engine a buffer to copy), consumers take packet
	// views over the segment chains and release them after reading. In a
	// pure view run the copied_bytes CSV column is exactly 0.
	var viewMode bool
	switch a.delivery {
	case "", "copy":
	case "view":
		viewMode = true
	default:
		return fmt.Errorf("unknown delivery %q (want copy or view)", a.delivery)
	}
	if a.ports < 1 {
		return fmt.Errorf("ports must be >= 1, got %d", a.ports)
	}
	// Push-mode transmit: the engine's pacer serves the ports instead of
	// pull-loop consumers, engaged by a multi-port layout or a shaper rate.
	pushMode := a.ports > 1 || a.rate > 0
	kind, err := policy.ParseKind(a.policy)
	if err != nil {
		return err
	}
	egKind, err := policy.ParseEgressKind(a.egress)
	if err != nil {
		return err
	}
	egCfg := policy.EgressConfig{Kind: egKind, QuantumBytes: a.quantum}
	var tierKinds [policy.NumTiers]policy.EgressKind
	for t := range policy.NumTiers {
		ta := a.tiers[t]
		if tierKinds[t], err = policy.ParseEgressKind(ta.egress); err != nil {
			return err
		}
		if ta.units < 0 {
			return fmt.Errorf("%s count must be >= 0, got %d", t, ta.units)
		}
		weights, err := parseLevelWeights(ta.weights, t, ta.units)
		if err != nil {
			return err
		}
		if ta.units > 1 {
			egCfg = egCfg.WithLevel(policy.LevelSpec{Tier: t, Kind: tierKinds[t], Units: ta.units, Weights: weights})
		}
	}
	e, err := engine.New(engine.Config{
		Shards:      a.shards,
		NumFlows:    a.flows,
		NumSegments: a.pool,
		Admission: policy.Config{
			Kind: kind, Limit: a.limit,
			MinTh: a.minth, MaxTh: a.maxth, MaxP: a.maxp, Weight: a.wq,
			Seed: a.seed,
		},
		Egress:          egCfg,
		NumPorts:        a.ports,
		PortRate:        policy.ShaperConfig{RateBytesPerSec: a.rate, BurstBytes: a.burstBytes},
		RingCapacity:    a.ringCap,
		ResidenceSample: a.residence,
	})
	if err != nil {
		return err
	}
	if a.ports > 1 {
		for f := 0; f < a.flows; f++ {
			if err := e.SetFlowPort(uint32(f), f%a.ports); err != nil {
				return err
			}
		}
	}
	// Flows spread flow % classes; tenants cut across classes, (flow /
	// classes) % tenants, so every tenant holds flows of every class and
	// the two levels arbitrate independently.
	unitOf := func(t policy.Tier, f uint32) int {
		if t == policy.TierTenant {
			return int(f) / max(a.tiers[policy.TierClass].units, 1) % a.tiers[t].units
		}
		return int(f) % a.tiers[t].units
	}
	setUnit := [policy.NumTiers]func(uint32, int) error{
		policy.TierTenant: e.SetFlowTenant,
		policy.TierClass:  e.SetFlowClass,
	}
	// Per-unit delivery tallies for the CSV blocks; the flow→unit maps are
	// the static spreads above, so the tallies index directly.
	var tierPkts [policy.NumTiers][]atomic.Uint64
	for t := range policy.NumTiers {
		if a.tiers[t].units <= 1 {
			continue
		}
		tierPkts[t] = make([]atomic.Uint64, a.tiers[t].units)
		for f := 0; f < a.flows; f++ {
			if err := setUnit[t](uint32(f), unitOf(t, uint32(f))); err != nil {
				return err
			}
		}
	}
	countUnits := func(f uint32) {
		for t := range policy.NumTiers {
			if tierPkts[t] != nil {
				tierPkts[t][unitOf(t, f)].Add(1)
			}
		}
	}
	if ringMode {
		if err := e.Start(); err != nil {
			return err
		}
	}
	// The first ops % parallel producers offer one packet more, so the
	// offered total is -ops whatever it divides by.
	perProducer, extra := a.ops/a.parallel, a.ops%a.parallel
	// One zeroed max-size payload shared by every producer; each packet is a
	// per-draw prefix slice of it. The engine copies payloads on enqueue and
	// nobody mutates the buffer, so sharing it read-only is safe on both
	// datapaths.
	payload := make([]byte, mixProbe.Max())
	var prodWG, consWG sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	var peakResident atomic.Int64
	var peakRing atomic.Int64
	// Per-producer completion-latency histograms, merged after the run.
	compLat := make([]stats.Histogram, a.parallel)
	done := make(chan struct{})
	// The producers' enqueue form, chosen once. offer is the blocking call
	// the 1-in-compLatEvery latency sample times — on the ring datapath it
	// first executes what the shard's ring holds — and post is what every
	// other packet uses.
	offer := func(f uint32, pkt []byte) error {
		_, err := e.EnqueuePacket(f, pkt)
		return err
	}
	if viewMode {
		// Write-in-place ingest: reserve the run, scatter the payload into
		// the reserved segment slices (the copy here stands in for a NIC
		// writing segments as they arrive — the engine itself never
		// copies), splice. A sample times both critical sections.
		offer = func(f uint32, pkt []byte) error {
			r, err := e.ReservePacket(f, len(pkt))
			if err != nil {
				return err
			}
			off := 0
			r.Range(func(seg []byte) bool {
				off += copy(seg, pkt[off:])
				return true
			})
			return r.Commit()
		}
	}
	post := offer
	if ringMode && !viewMode {
		post = e.EnqueueAsync // fire and forget; outcomes land in the counters
	}
	start := time.Now()

	for p := 0; p < a.parallel; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			// Flow selection: a seeded uniform stride, or (with -zipf)
			// Zipf-skewed arrivals concentrating on few hot flows — the
			// workload where a shared pool beats a static split — with
			// -burst consecutive packets per flow either way.
			fdKind := traffic.FlowUniform
			if a.zipf > 1 {
				fdKind = traffic.FlowZipf
			}
			fd, err := traffic.NewFlowDist(traffic.FlowDistConfig{
				Kind: fdKind, Flows: a.flows, Skew: a.zipf,
				Burst: a.burst, Seed: a.seed + uint64(p),
			})
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			mix, err := traffic.NewSizeMix(traffic.SizeMixConfig{
				Kind: mixKind, Fixed: a.pktBytes, Seed: a.seed + uint64(p),
			})
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			quota := perProducer
			if p < extra {
				quota++
			}
			for n := 0; n < quota; n++ {
				f := fd.Next()
				pkt := payload[:mix.Next()]
				var err error
				// Both datapaths sample the blocking call's latency on the
				// same schedule, so the measurement overhead (two clock
				// reads and a histogram add) is charged identically and the
				// mpps columns stay comparable.
				if n%compLatEvery == 0 {
					t0 := time.Now()
					err = offer(f, pkt)
					compLat[p].Add(time.Since(t0).Nanoseconds())
				} else {
					err = post(f, pkt)
				}
				switch {
				case err == nil:
				case errors.Is(err, engine.ErrAdmissionDrop):
					// Counted by the engine; the policy is the backpressure.
				case errors.Is(err, queue.ErrNoFreeSegments):
					// No admission policy: drop at the physical limit, as a
					// line card does when buffer memory is gone.
				default:
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(p)
	}

	// The pull form, chosen once like the enqueue form: a batch of buffers
	// handed back one by one, or a batch of views released together.
	dequeue, release := e.DequeueNextBatch, func(batch []engine.Dequeued) {
		for _, d := range batch {
			e.ReleaseBuffer(d.Data)
		}
	}
	if viewMode {
		dequeue, release = e.DequeueNextViewBatch, e.ReleaseViews
	}
	pull := func(max int) int {
		batch := dequeue(max)
		for _, d := range batch {
			countUnits(d.Flow)
		}
		release(batch)
		return len(batch)
	}
	if pushMode {
		// Push-mode egress: the pacer hands the sink a view per
		// packet and the engine releases it when SendView returns. A sink
		// that wants contiguous bytes (-delivery copy) copies the payload
		// out of the view, outside every shard lock, into a buffer of its
		// own (a port's sink never runs concurrently with itself).
		for p := 0; p < a.ports; p++ {
			var buf []byte
			if err := e.ServeViews(p, engine.SinkVFunc(func(_ int, d engine.DequeuedView) error {
				countUnits(d.Flow)
				if !viewMode {
					buf = d.View.AppendTo(buf[:0])
				}
				return nil
			})); err != nil {
				return err
			}
		}
	} else {
		for c := 0; c < a.parallel; c++ {
			consWG.Add(1)
			go func() {
				defer consWG.Done()
				for {
					if pull(64) > 0 {
						continue
					}
					select {
					case <-done:
						return
					default:
						// Yield so producers get CPU on few-core hosts;
						// without this the consumer burns its timeslice
						// polling an empty engine and the CSV measures
						// scheduler timeslices, not policy behavior.
						runtime.Gosched()
					}
				}
			}()
		}
	}

	// Sample buffer and command-ring occupancy while the run is hot.
	sampler := make(chan struct{})
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampler:
				return
			case <-tick.C:
				st := e.Stats()
				if r := int64(st.QueuedSegments); r > peakResident.Load() {
					peakResident.Store(r)
				}
				if r := int64(e.RingOccupancy()); r > peakRing.Load() {
					peakRing.Store(r)
				}
			}
		}
	}()

	prodWG.Wait()
	if ringMode {
		// Let the workers finish the async backlog before the cutoff
		// snapshot, so the resident column reflects buffered packets, not
		// commands still in flight in the rings.
		if r := int64(e.RingOccupancy()); r > peakRing.Load() {
			peakRing.Store(r)
		}
		if err := e.Drain(); err != nil {
			return err
		}
	}
	// Sample at end-of-offer: the resident column reports the backlog the
	// consumers still faced when the offered load stopped (not the
	// post-drain zero), and short runs never report an idle buffer.
	residentAtCutoff := e.Stats().QueuedSegments
	if int64(residentAtCutoff) > peakResident.Load() {
		peakResident.Store(int64(residentAtCutoff))
	}
	// Snapshot per-class/per-tenant deliveries at the same cutoff: while
	// the backlog persisted, the level disciplines governed who was
	// served, so the cutoff shares show the scheduler. The full-run
	// totals converge to the admission mix once the drain below delivers
	// everything that was ever admitted.
	var cutPkts [policy.NumTiers][]uint64
	for t := range policy.NumTiers {
		cutPkts[t] = make([]uint64, len(tierPkts[t]))
		for u := range tierPkts[t] {
			cutPkts[t][u] = tierPkts[t][u].Load()
		}
	}
	close(done)
	consWG.Wait()
	close(sampler)
	if firstErr != nil {
		return firstErr
	}
	if pushMode {
		// Let the pacer transmit the cutoff backlog at the ports' shaped
		// rate; the deadline only guards against rates so low the drain
		// would outlive anyone's patience.
		deadline := time.Now().Add(2 * time.Minute)
		for e.Stats().QueuedSegments > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	// Drain whatever the consumers left at the cutoff.
	for pull(256) > 0 {
	}
	elapsed := time.Since(start)
	st := e.Stats()
	portStats := e.PortStats()
	var tierWeights [policy.NumTiers][]int
	for t := range policy.NumTiers {
		for _, ts := range e.TierStats(t) {
			tierWeights[t] = append(tierWeights[t], ts.Weight)
		}
	}
	// Close first: it waits for the pacer, which may still be returning
	// their last burst's views, and CheckInvariants needs quiescence.
	if err := e.Close(); err != nil {
		return err
	}
	if err := e.CheckInvariants(); err != nil {
		return err
	}
	var lat stats.Histogram
	for i := range compLat {
		lat.Merge(&compLat[i])
	}
	// Delivered bytes are priced at the mix's mean packet size (exact for
	// the fixed mix; the IMIX blend converges on its 7:4:1 mean).
	meanPkt := mixProbe.Mean()
	mpps := float64(st.DequeuedPackets) / elapsed.Seconds() / 1e6
	gbps := float64(st.DequeuedPackets) * meanPkt * 8 / elapsed.Seconds() / 1e9
	occPct := 100 * float64(peakResident.Load()) / float64(a.pool)
	if occPct > 100 {
		// Stats snapshots shards one critical section at a time, not as an
		// atomic cut, so a sampled sum can transiently exceed the pool.
		occPct = 100
	}
	delivMode := "copy"
	if viewMode {
		delivMode = "view"
	}
	fmt.Fprintln(w, "shards,parallel,flows,policy,egress,datapath,delivery,pktmix,pkt_bytes,offered,delivered,dropped,pushed_out,rejected,resident,peak_occupancy_pct,ring_occ_peak,comp_p50_us,comp_p99_us,res_p50_us,res_p99_us,copied_bytes,runs_per_pkt,whole_per_pkt,elapsed_s,mpps,gbps")
	fmt.Fprintf(w, "%d,%d,%d,%s,%s,%s,%s,%s,%.0f,%d,%d,%d,%d,%d,%d,%.1f,%d,%.1f,%.1f,%.1f,%.1f,%d,%.3f,%.3f,%.3f,%.3f,%.3f\n",
		e.Config().Shards, a.parallel, a.flows, kind, egKind, a.datapath, delivMode, mixKind, meanPkt,
		a.ops, st.DequeuedPackets,
		st.DroppedPackets, st.PushedOutPackets, st.Rejected,
		residentAtCutoff, occPct, peakRing.Load(),
		lat.Quantile(0.50)/1e3, lat.Quantile(0.99)/1e3,
		st.ResidenceP50Ns/1e3, st.ResidenceP99Ns/1e3,
		st.CopiedBytes, float64(st.EnqueuedRuns)/float64(max(st.EnqueuedPackets, 1)),
		float64(st.EnqueuedWhole)/float64(max(st.EnqueuedPackets, 1)), elapsed.Seconds(), mpps, gbps)
	if pushMode {
		// Per-port block: what each shaped output port actually carried,
		// and (for shaped ports) how tightly the pacer tracked the rate —
		// mean and p99 inter-departure gap in µs, zeros when unshaped.
		fmt.Fprintln(w, "port,rate_bps,tx_packets,tx_bytes,throttled,shaper_tokens,gap_samples,mean_gap_us,p99_gap_us,port_gbps")
		for _, p := range portStats {
			fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%.1f,%.1f,%.3f\n",
				p.Port, p.RateBytesPerSec*8, p.TransmittedPackets, p.TransmittedBytes,
				p.Throttled, p.ShaperTokens,
				p.GapSamples, float64(p.MeanGapNs)/1e3, float64(p.P99GapNs)/1e3,
				float64(p.TransmittedBytes)*8/elapsed.Seconds()/1e9)
		}
	}
	// Per-class then per-tenant block, mirroring the per-port one: what each
	// unit was actually granted under its level's discipline.
	for _, t := range []policy.Tier{policy.TierClass, policy.TierTenant} {
		if tierPkts[t] == nil {
			continue
		}
		var total, cutTotal uint64
		for u := range tierPkts[t] {
			total += tierPkts[t][u].Load()
			cutTotal += cutPkts[t][u]
		}
		share := func(n, of uint64) float64 {
			if of == 0 {
				return 0
			}
			return 100 * float64(n) / float64(of)
		}
		fmt.Fprintf(w, "%s,%s_kind,weight,delivered,delivered_bytes,share_pct,cutoff_delivered,cutoff_share_pct\n", t, t)
		for u := range tierPkts[t] {
			n, cut := tierPkts[t][u].Load(), cutPkts[t][u]
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%.1f,%d,%.1f\n",
				u, tierKinds[t], tierWeights[t][u], n, uint64(float64(n)*meanPkt), share(n, total), cut, share(cut, cutTotal))
		}
	}
	return nil
}

func runNPU(w io.Writer, copyEng string, clock float64) error {
	var e npu.CopyEngine
	switch copyEng {
	case "word":
		e = npu.WordCopy
	case "line":
		e = npu.LineCopy
	case "dma":
		e = npu.DMACopy
	default:
		return fmt.Errorf("unknown copy engine %q", copyEng)
	}
	enq := npu.EnqueueCost(true, e)
	deq := npu.DequeueCost(e)
	fmt.Fprintln(w, "copy_engine,clock_mhz,enqueue_cycles,dequeue_cycles,transit_mbps,scaled_transit_mbps")
	fmt.Fprintf(w, "%s,%.0f,%d,%d,%.1f,%.1f\n",
		e, clock, enq.CPUCycles(), deq.CPUCycles(),
		npu.TransitMbps(e, clock), npu.ScaledTransitMbps(e, clock))
	return nil
}
