// What `go test -bench` still measures. The engine's benchmark is bench/
// (BENCHMARK.json, `go run -C bench . -workload all -out f.json`, then
// `-compare`): six workloads with every delivery verified, the host's pace
// corrected for, and bounds. A cell lives here only when no bench/ workload
// runs what it runs:
//
//   - Table1DDRSchedulers, Table2IXP1200, Table3NPUOps, Table4MMSCommands,
//     Table5MMSLoad, Fig1NPUPath, Fig2MMSPipeline, AblationLookAhead,
//     AblationFIFODepth, AblationBanks: the paper's timed models. They run
//     in simulated time off the engine datapath, which bench/ does not
//     drive; each reports its reproduction metric via b.ReportMetric.
//   - Segstore: the shared store against a static per-shard split (one
//     segstore.Store per worker). No engine configuration builds the
//     split, so no workload can compare the two.
//   - EngineDelivery: allocs per delivered packet, batch of 1 and of 64,
//     copy and view, out of a standing backlog. bench/ reports
//     engine.allocs_per_pkt as one MemStats delta over a saturate window,
//     producer and harness included; this isolates the delivery calls,
//     per batch size.
//   - EngineEgress: the four flow-level disciplines with a batch of one.
//     bench/ schedules flat round-robin (min64-sync-pull) or DRR under
//     two WRR levels (hier3-drr-pull); strict priority and WRR at the flow
//     level run nowhere else.
//   - EnginePolicy: the cost of consulting Tail-Drop and RED against no
//     policy. overload-lqd-steps is LQD only.
//   - EngineShardedBatch: EnqueueBatch/DequeueBatch, an entry point no
//     workload calls, beside the same bursts through the per-packet calls
//     — the margin DESIGN.md's "What stays in two forms" keeps them by.
//
// The engine cells run at bench/'s shard count and no other; the shard
// sweep is `qmsim -model engine -shards 1|4|16|64`. Run with:
//
//	go test -run '^$' -bench . -benchmem .
package npqm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"npqm/internal/core"
	"npqm/internal/ddr"
	"npqm/internal/ixp"
	"npqm/internal/npu"
	"npqm/internal/queue"
	"npqm/internal/segstore"
	"npqm/internal/traffic"
)

// benchShards is the shard count of every engine cell: bench/'s.
const benchShards = 4

// benchFlowDist builds the uniform flow picker the engine benchmarks share
// (see internal/traffic): a multiplicative stride seeded per goroutine so
// concurrent workers mostly land on different shards.
func benchFlowDist(b *testing.B, seed uint64) *traffic.FlowDist {
	fd, err := traffic.NewFlowDist(traffic.FlowDistConfig{Flows: DefaultFlows, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return fd
}

// BenchmarkTable1DDRSchedulers regenerates the DDR throughput-loss cells:
// one sub-benchmark per (banks, scheduler, penalty-model) configuration.
func BenchmarkTable1DDRSchedulers(b *testing.B) {
	for _, banks := range []int{1, 4, 8, 12, 16} {
		for _, sched := range []ddr.SchedulerKind{ddr.FCFSRoundRobin, ddr.Reorder} {
			for _, rw := range []bool{false, true} {
				name := fmt.Sprintf("banks=%d/%v/rw=%v", banks, sched, rw)
				b.Run(name, func(b *testing.B) {
					var loss float64
					for i := 0; i < b.N; i++ {
						res, err := ddr.RunSaturated(ddr.Config{
							Banks: banks, Scheduler: sched, RWInterleave: rw,
						}, 12345, 20_000)
						if err != nil {
							b.Fatal(err)
						}
						loss = res.Loss
					}
					b.ReportMetric(loss, "loss")
				})
			}
		}
	}
}

// BenchmarkTable2IXP1200 regenerates the IXP packet-rate cells.
func BenchmarkTable2IXP1200(b *testing.B) {
	for _, queues := range []int{16, 128, 1024} {
		for _, engines := range []int{1, 6} {
			b.Run(fmt.Sprintf("queues=%d/engines=%d", queues, engines), func(b *testing.B) {
				p, err := ixp.ProfileForQueues(queues)
				if err != nil {
					b.Fatal(err)
				}
				var kpps float64
				for i := 0; i < b.N; i++ {
					res, err := ixp.Run(ixp.Config{Profile: p, Engines: engines, Packets: 500})
					if err != nil {
						b.Fatal(err)
					}
					kpps = res.Kpps
				}
				b.ReportMetric(kpps, "Kpps")
			})
		}
	}
}

// BenchmarkTable3NPUOps regenerates the reference-NPU cycle counts for all
// three copy engines.
func BenchmarkTable3NPUOps(b *testing.B) {
	for _, engine := range npu.CopyEngines() {
		b.Run(engine.String(), func(b *testing.B) {
			var pair int
			for i := 0; i < b.N; i++ {
				enq := npu.EnqueueCost(true, engine)
				deq := npu.DequeueCost(engine)
				pair = enq.CPUCycles() + deq.CPUCycles()
			}
			b.ReportMetric(float64(pair), "cycles/pkt")
			b.ReportMetric(npu.TransitMbps(engine, npu.ClockMHz), "Mbps")
		})
	}
}

// BenchmarkTable4MMSCommands measures the functional execution of each MMS
// command and reports its modeled hardware latency.
func BenchmarkTable4MMSCommands(b *testing.B) {
	for _, cmd := range core.Commands() {
		b.Run(cmd.String(), func(b *testing.B) {
			m, err := core.New(core.Config{NumQueues: 64, NumSegments: 4096})
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, queue.SegmentBytes)
			// Pre-populate so every command has a target.
			for q := queue.QueueID(0); q < 64; q++ {
				for s := 0; s < 8; s++ {
					if _, err := m.Do(core.Request{Cmd: core.CmdEnqueue, Queue: q, Payload: payload, EOP: true}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queue.QueueID(i % 64)
				req := core.Request{Cmd: cmd, Queue: q, Dest: (q + 1) % 64, Payload: payload, EOP: true, Length: 32}
				if _, err := m.Do(req); err != nil {
					b.Fatal(err)
				}
				// Keep queue populations steady: destructive commands are
				// balanced by an enqueue, and the enqueue by a dequeue, so
				// the pool neither drains nor exhausts at any b.N.
				switch cmd {
				case core.CmdDequeue, core.CmdDelete:
					if _, err := m.Do(core.Request{Cmd: core.CmdEnqueue, Queue: q, Payload: payload, EOP: true}); err != nil {
						b.Fatal(err)
					}
				case core.CmdEnqueue:
					if _, err := m.Do(core.Request{Cmd: core.CmdDequeue, Queue: q}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(cmd.Cycles()), "hw-cycles")
		})
	}
}

// BenchmarkTable5MMSLoad regenerates the delay decomposition rows.
func BenchmarkTable5MMSLoad(b *testing.B) {
	for _, load := range core.Table5Loads {
		b.Run(fmt.Sprintf("load=%.2fGbps", load), func(b *testing.B) {
			var p core.LoadPoint
			for i := 0; i < b.N; i++ {
				var err error
				p, err = core.RunLoad(core.LoadConfig{
					LoadGbps: load, Seed: 7,
					WarmupCommands: 500, MeasureCommands: 5_000,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.FIFODelay, "fifo-cycles")
			b.ReportMetric(p.DataDelay, "data-cycles")
			b.ReportMetric(p.TotalDelay, "total-cycles")
		})
	}
}

// BenchmarkFig1NPUPath walks a packet through the Figure 1 software path:
// free-list pop, segment link, copy — the full enqueue+dequeue transit.
func BenchmarkFig1NPUPath(b *testing.B) {
	qm, err := queue.New(queue.Config{NumQueues: 1024, NumSegments: 8192})
	if err != nil {
		b.Fatal(err)
	}
	pkt := make([]byte, 64)
	var cycles int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queue.QueueID(i % 1024)
		if _, err := qm.EnqueuePacket(q, pkt); err != nil {
			b.Fatal(err)
		}
		if _, _, err := qm.DequeuePacket(q); err != nil {
			b.Fatal(err)
		}
		cycles = npu.EnqueueCost(true, npu.WordCopy).CPUCycles() + npu.DequeueCost(npu.WordCopy).CPUCycles()
	}
	b.ReportMetric(float64(cycles), "hw-cycles/pkt")
}

// BenchmarkFig2MMSPipeline drives packets through all five Figure 2 blocks:
// segmentation, scheduler-ordered enqueues, DQM, DMC accounting, reassembly.
func BenchmarkFig2MMSPipeline(b *testing.B) {
	m, err := core.New(core.Config{NumQueues: 1024, NumSegments: 16384})
	if err != nil {
		b.Fatal(err)
	}
	pkt := make([]byte, 320) // 5 segments, the Table 5 reference burst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queue.QueueID(i % 1024)
		if _, err := m.Seg.Push(q, pkt); err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.Reasm.Pop(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLookAhead quantifies the DESIGN.md ablation: how much a
// deeper reorder window would improve on the paper's head-only scheduler.
func BenchmarkAblationLookAhead(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lookahead=%d", depth), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				res, err := ddr.RunSaturated(ddr.Config{
					Banks: 4, Scheduler: ddr.Reorder, LookAhead: depth,
				}, 5, 20_000)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.Loss
			}
			b.ReportMetric(loss, "loss")
		})
	}
}

// BenchmarkAblationFIFODepth quantifies the MMS FIFO sizing trade-off that
// shapes Table 5's saturation row.
func BenchmarkAblationFIFODepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var p core.LoadPoint
			for i := 0; i < b.N; i++ {
				var err error
				p, err = core.RunLoad(core.LoadConfig{
					LoadGbps: 6.14, Seed: 7,
					MMS:            core.Config{FIFODepth: depth},
					WarmupCommands: 500, MeasureCommands: 5_000,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.FIFODelay, "fifo-cycles")
		})
	}
}

// BenchmarkAblationBanks sweeps DDR bank counts beyond the paper's 16 to
// show diminishing returns of interleaving.
func BenchmarkAblationBanks(b *testing.B) {
	for _, banks := range []int{2, 8, 32, 64} {
		b.Run(fmt.Sprintf("banks=%d", banks), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				res, err := ddr.RunSaturated(ddr.Config{
					Banks: banks, Scheduler: ddr.Reorder, RWInterleave: true,
				}, 5, 20_000)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.Loss
			}
			b.ReportMetric(loss, "loss")
		})
	}
}

// BenchmarkEngineShardedBatch is the batched entry point against the margin
// it must keep: bursts of 64 packets per EnqueueBatch/DequeueBatch call,
// locking each shard once per burst ("batch"), and the same bursts through
// EnqueuePacket/DequeuePacket, one shard entry per packet ("loop").
func BenchmarkEngineShardedBatch(b *testing.B) {
	const burst = 64
	for _, mode := range []string{"batch", "loop"} {
		b.Run(mode, func(b *testing.B) {
			cm, err := NewConcurrentEngine(ConcurrentConfig{Flows: DefaultFlows, Segments: 1 << 17, Shards: benchShards})
			if err != nil {
				b.Fatal(err)
			}
			pkt := make([]byte, 320)
			b.SetBytes(int64(len(pkt) * burst))
			b.ReportAllocs()
			var gid atomic.Uint32
			b.RunParallel(func(pb *testing.PB) {
				batch := make([]PacketEnqueue, burst)
				flows := make([]uint32, burst)
				fd := benchFlowDist(b, uint64(gid.Add(1)))
				for pb.Next() {
					for j := range batch {
						f := fd.Next()
						batch[j] = PacketEnqueue{Flow: f, Data: pkt}
						flows[j] = f
					}
					if err := shardedBurst(cm, mode == "loop", batch, flows); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// shardedBurst enqueues batch and dequeues flows, one call per packet when
// loop is set, else through the batch entry points, and releases every
// buffer it dequeued.
func shardedBurst(cm *ConcurrentQueueManager, loop bool, batch []PacketEnqueue, flows []uint32) error {
	if loop {
		for _, p := range batch {
			if _, err := cm.EnqueuePacket(p.Flow, p.Data); err != nil {
				return err
			}
		}
		for _, f := range flows {
			data, err := cm.DequeuePacket(f)
			if err != nil {
				return err
			}
			cm.ReleaseBuffer(data)
		}
		return nil
	}
	if _, errs := cm.EnqueueBatch(batch); errs != nil {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	pkts, errs := cm.DequeueBatch(flows)
	for j, err := range errs {
		if err != nil {
			return err
		}
		cm.ReleaseBuffer(pkts[j])
	}
	return nil
}

// BenchmarkEnginePolicy measures the admission-policy overhead on the
// enqueue/dequeue round trip: "none" is the policy-free baseline; the
// acceptance bar is tail-drop within 10% of it (the tail check is two
// integer compares under a lock already held). The traffic pattern keeps
// queues shallow so no policy actually drops — this isolates the cost of
// consulting the policy, not of dropping.
func BenchmarkEnginePolicy(b *testing.B) {
	cases := []struct {
		name string
		adm  AdmissionConfig
	}{
		{"none", AdmissionConfig{}},
		{"tail", TailDrop(64)},
		{"red", RED(0.25, 0.75, 0.1, 0.002)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cm, err := NewConcurrentEngine(ConcurrentConfig{
				Flows:     DefaultFlows,
				Segments:  1 << 17,
				Shards:    benchShards,
				Admission: tc.adm,
			})
			if err != nil {
				b.Fatal(err)
			}
			pkt := make([]byte, 320)
			b.SetBytes(int64(len(pkt)))
			var gid atomic.Uint32
			b.RunParallel(func(pb *testing.PB) {
				fd := benchFlowDist(b, uint64(gid.Add(1)))
				for pb.Next() {
					f := fd.Next()
					if _, err := cm.EnqueuePacket(f, pkt); err != nil {
						b.Error(err)
						return
					}
					data, err := cm.DequeuePacket(f)
					if err != nil {
						b.Error(err)
						return
					}
					cm.ReleaseBuffer(data)
				}
			})
		})
	}
}

// BenchmarkEngineEgress measures the integrated scheduler's pick+dequeue
// path for each discipline, against a standing backlog refilled per
// iteration.
func BenchmarkEngineEgress(b *testing.B) {
	for _, eg := range []EgressConfig{
		RoundRobinEgress(), PriorityEgress(), WRREgress(2), DRREgress(512),
	} {
		b.Run(eg.Kind.String(), func(b *testing.B) {
			cm, err := NewConcurrentEngine(ConcurrentConfig{
				Flows:    1024,
				Segments: 1 << 15,
				Shards:   benchShards,
				Egress:   eg,
			})
			if err != nil {
				b.Fatal(err)
			}
			pkt := make([]byte, 320)
			for f := uint32(0); f < 1024; f++ {
				if _, err := cm.EnqueuePacket(f, pkt); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(pkt)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, ok := cm.DequeueNext()
				if !ok {
					b.Fatal("scheduler idle with backlog")
				}
				cm.ReleaseBuffer(out.Data)
				if _, err := cm.EnqueuePacket(out.Flow, pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// deliverySink keeps BenchmarkEngineDelivery's delivered bytes observable,
// so the compiler cannot drop the delivery calls' results.
var deliverySink int

// BenchmarkEngineDelivery prices the delivery path's fixed cost, per
// packet: pull a batch (1 = DequeueNext[View], 64 = DequeueNext[View]Batch)
// out of a standing backlog, release it, and put the same packets back. At
// 64 B the copy itself is small, so the figure is the per-call and
// per-packet overhead around it — shard lock, pick, buffer pool, free-count
// publication, result slice; IMIX adds the per-segment work. allocs/op is
// per packet: the batch's one result slice shows as 1/64.
func BenchmarkEngineDelivery(b *testing.B) {
	const backlog = 8192
	for _, delivery := range []string{"copy", "view"} {
		for _, mix := range []traffic.SizeMixKind{traffic.MixFixed, traffic.MixIMIX} {
			size := "64B"
			if mix == traffic.MixIMIX {
				size = "imix"
			}
			for _, batch := range []int{1, 64} {
				b.Run(fmt.Sprintf("delivery=%s/size=%s/batch=%d", delivery, size, batch), func(b *testing.B) {
					cm, err := NewConcurrentEngine(ConcurrentConfig{Flows: DefaultFlows, Segments: 1 << 18, Shards: benchShards})
					if err != nil {
						b.Fatal(err)
					}
					sizes, err := traffic.NewSizeMix(traffic.SizeMixConfig{Kind: mix, Fixed: 64, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					fd := benchFlowDist(b, 1)
					pkt := make([]byte, 1500)
					refill := func(flow uint32) {
						if _, err := cm.EnqueuePacket(flow, pkt[:sizes.Next()]); err != nil {
							b.Fatal(err)
						}
					}
					for i := 0; i < backlog; i++ {
						refill(fd.Next())
					}
					copied := delivery == "copy"
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i += batch {
						switch {
						case copied && batch == 1:
							d, _ := cm.DequeueNext()
							deliverySink += d.Bytes
							cm.ReleaseBuffer(d.Data)
							refill(d.Flow)
						case copied:
							out := cm.DequeueNextBatch(batch)
							for _, d := range out {
								deliverySink += d.Bytes
								cm.ReleaseBuffer(d.Data)
							}
							for _, d := range out {
								refill(d.Flow)
							}
						case batch == 1:
							d, _ := cm.DequeueNextView()
							deliverySink += d.Bytes
							d.View.Release()
							refill(d.Flow)
						default:
							out := cm.DequeueNextViewBatch(batch)
							for _, d := range out {
								deliverySink += d.Bytes
							}
							cm.ReleaseViews(out)
							for _, d := range out {
								refill(d.Flow)
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkSegstore compares the shared segment store against the old
// static per-shard pool split at the allocation layer. Each worker holds a
// live set of segments and churns one segment at a time through AllocN and
// FreeN, as the single-segment commands do (alloc one, trim to target):
// "uniform" sizes every worker's target just under an even pool share;
// "zipf" skews demand so the hottest workers want several times their
// share. Under the static split the hot workers' allocations fail once
// their private pool is exhausted — capacity stranded in the cold workers'
// pools — while the shared store serves the skew from one pool. The fail
// metric reports failed allocations per successful one.
func BenchmarkSegstore(b *testing.B) {
	const pool = 1 << 16
	workers := runtime.GOMAXPROCS(0)
	targets := func(dist string) []int {
		t := make([]int, workers)
		switch dist {
		case "uniform":
			for w := range t {
				t[w] = pool * 9 / 10 / workers
			}
		case "zipf":
			weights := make([]float64, workers)
			var sum float64
			for w := range weights {
				weights[w] = 1 / float64(w+1)
				sum += weights[w]
			}
			for w := range t {
				t[w] = int(float64(pool) * 0.9 * weights[w] / sum)
			}
		}
		return t
	}
	for _, mode := range []string{"shared", "static"} {
		for _, dist := range []string{"uniform", "zipf"} {
			b.Run(fmt.Sprintf("%s/%s", mode, dist), func(b *testing.B) {
				tgt := targets(dist)
				srcs := make([]*segstore.Cache, workers)
				switch mode {
				case "shared":
					st, err := segstore.New(segstore.Config{NumSegments: pool})
					if err != nil {
						b.Fatal(err)
					}
					for w := range srcs {
						srcs[w] = st.NewCache()
					}
				case "static":
					for w := range srcs {
						st, err := segstore.New(segstore.Config{NumSegments: pool / workers})
						if err != nil {
							b.Fatal(err)
						}
						srcs[w] = st.NewCache()
					}
				}
				var fails, oks atomic.Uint64
				var gid atomic.Uint32
				b.RunParallel(func(pb *testing.PB) {
					w := int(gid.Add(1)-1) % workers
					src := srcs[w]
					held := make([]int32, 0, tgt[w]+1)
					one := make([]int32, 1)
					for pb.Next() {
						if src.AllocN(one) == 1 {
							held = append(held, one[0])
							oks.Add(1)
						} else {
							fails.Add(1)
						}
						for len(held) > tgt[w] {
							s := held[len(held)-1]
							src.FreeN(s, s, 1)
							held = held[:len(held)-1]
						}
					}
					for _, s := range held {
						src.FreeN(s, s, 1)
					}
				})
				if oks.Load() > 0 {
					b.ReportMetric(float64(fails.Load())/float64(oks.Load()), "fails/alloc")
				}
			})
		}
	}
}
