// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design choices called out in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark both exercises the model under test (so -benchmem and
// ns/op are meaningful for the simulator itself) and reports the headline
// reproduction metric via b.ReportMetric, so the paper-facing number is
// visible in the benchmark output.
package npqm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/core"
	"npqm/internal/ddr"
	"npqm/internal/ixp"
	"npqm/internal/npu"
	"npqm/internal/queue"
	"npqm/internal/segstore"
	"npqm/internal/traffic"
)

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

// benchZipfSkew is the Zipf exponent of the skewed benchmark dimension:
// heavy enough that a handful of flows (and so a handful of shards)
// carry most of the traffic and one shard's lock and ring most of the load.
const benchZipfSkew = 1.3

// benchFlowDistKind builds the picker for a named benchmark dimension:
// "uniform" (the stride above) or "zipf" (flow 0 hottest).
func benchFlowDistKind(b *testing.B, seed uint64, dist string) *traffic.FlowDist {
	if dist != "zipf" {
		return benchFlowDist(b, seed)
	}
	fd, err := traffic.NewFlowDist(traffic.FlowDistConfig{
		Kind: traffic.FlowZipf, Flows: DefaultFlows, Skew: benchZipfSkew, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return fd
}

// benchName appends the non-default dimension values, so pre-existing
// benchmark names (uniform traffic) stay comparable across BENCH_N.json
// generations.
func benchName(base, dist string) string {
	if dist != "uniform" {
		base += "/dist=" + dist
	}
	return base
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
	qm, err := queue.New(queue.Config{NumQueues: 1024, NumSegments: 8192, StoreData: true})
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
	m, err := core.New(core.Config{NumQueues: 1024, NumSegments: 16384, StoreData: true})
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

// BenchmarkEngineSharded sweeps the two ways to enqueue over the shard
// counts with GOMAXPROCS producer goroutines, so the speedup of sharding —
// and of posting enqueues over waiting for each one — is measured rather
// than asserted. The sync variant is the seed's per-packet round trip:
// every call takes the shard mutex, so producers serialize on lock handoff
// as cores contend. The ring variant is the paper's structure: producers
// post fire-and-forget enqueue commands and collect the packets with one
// batched dequeue, which executes the posts on its way into each shard;
// per-flow FIFO through the ring guarantees every dequeue finds its
// packet. Throughput compares via MB/s (the ring variant moves a 64-packet
// burst per iteration).
func BenchmarkEngineSharded(b *testing.B) {
	const burst = 64
	for _, dist := range []string{"uniform", "zipf"} {
		for _, datapath := range []string{"sync", "ring"} {
			for _, shards := range []int{1, 4, 16, 64} {
				b.Run(benchName(fmt.Sprintf("datapath=%s/shards=%d", datapath, shards), dist), func(b *testing.B) {
					// Size the pool so the ring variant's worst-case in-flight
					// demand (every producer holding a full burst of 5-segment
					// packets) always fits: silent pool rejections on the
					// fire-and-forget path would otherwise fail the paired
					// dequeue on high-core machines.
					pool := 1 << 17
					if need := runtime.GOMAXPROCS(0) * 4 * burst * 5 * 2; need > pool {
						pool = need
					}
					cm, err := NewConcurrentEngine(ConcurrentConfig{
						Flows:    DefaultFlows,
						Segments: pool,
						Shards:   shards,
					})
					if err != nil {
						b.Fatal(err)
					}
					pkt := make([]byte, 320) // 5 segments, the Table 5 reference burst
					var gid atomic.Uint32
					// Several producer goroutines per core: the datapaths are
					// being compared exactly on how they behave when producers
					// outnumber cores — lock handoff versus command posting.
					b.SetParallelism(4)
					if datapath == "sync" {
						b.SetBytes(int64(len(pkt)))
						b.RunParallel(func(pb *testing.PB) {
							fd := benchFlowDistKind(b, uint64(gid.Add(1)), dist)
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
						return
					}
					if err := cm.Start(); err != nil {
						b.Fatal(err)
					}
					defer cm.Close()
					b.SetBytes(int64(len(pkt) * burst))
					b.RunParallel(func(pb *testing.PB) {
						fd := benchFlowDistKind(b, uint64(gid.Add(1)), dist)
						flows := make([]uint32, burst)
						for pb.Next() {
							for j := range flows {
								f := fd.Next()
								flows[j] = f
								if err := cm.EnqueueAsync(f, pkt); err != nil {
									b.Error(err)
									return
								}
							}
							pkts, errs := cm.DequeueBatch(flows)
							for j, err := range errs {
								if err != nil {
									b.Error(err)
									return
								}
								cm.ReleaseBuffer(pkts[j])
							}
						}
					})
				})
			}
		}
	}
}

// BenchmarkEngineShardedPipeline measures the two ways to enqueue in the
// shape the paper's architecture is actually built for: an ingress/egress
// pipeline, with producer goroutines offering packets while separate
// consumers drain through the integrated egress scheduler. In the sync
// variant producers and consumers contend on the shard mutexes; in the
// ring variant producers post fire-and-forget commands and whoever takes a
// shard's mutex next — usually a consumer — executes them. The headline metric is
// Mdeliv/s — packets actually delivered per second (drops under pool
// pressure are excluded, so a datapath cannot look fast by shedding
// load); deliv/op reports the delivered fraction of offered packets.
func BenchmarkEngineShardedPipeline(b *testing.B) {
	const drainBatch = 64
	for _, dist := range []string{"uniform", "zipf"} {
		for _, datapath := range []string{"sync", "ring"} {
			for _, shards := range []int{1, 4, 16, 64} {
				b.Run(benchName(fmt.Sprintf("datapath=%s/shards=%d", datapath, shards), dist), func(b *testing.B) {
					cm, err := NewConcurrentEngine(ConcurrentConfig{
						Flows:    DefaultFlows,
						Segments: 1 << 17,
						Shards:   shards,
					})
					if err != nil {
						b.Fatal(err)
					}
					ring := datapath != "sync"
					if ring {
						if err := cm.Start(); err != nil {
							b.Fatal(err)
						}
						defer cm.Close()
					}
					stop := make(chan struct{})
					var consWG sync.WaitGroup
					for c := 0; c < 2; c++ {
						consWG.Add(1)
						go func() {
							defer consWG.Done()
							for {
								out := cm.DequeueNextBatch(drainBatch)
								for _, d := range out {
									cm.ReleaseBuffer(d.Data)
								}
								if len(out) == 0 {
									select {
									case <-stop:
										return
									default:
										runtime.Gosched()
									}
								}
							}
						}()
					}
					pkt := make([]byte, 320)
					// Watermark flow control for the fire-and-forget producers:
					// pause posting while the pool runs low, as a NIC driver
					// paces against its descriptor ring. Without it the async
					// path degenerates into a drop machine under a slow egress
					// and the comparison would reward load shedding. The
					// watermark includes the worst-case overshoot of the
					// 32-packet amortized check below (producers × window × 5
					// segments), so high-core machines stay rejection-free.
					lowWater := (1<<17)/8 + runtime.GOMAXPROCS(0)*4*32*5
					var gid atomic.Uint32
					b.SetParallelism(4)
					b.ResetTimer()
					start := time.Now()
					b.RunParallel(func(pb *testing.PB) {
						fd := benchFlowDistKind(b, uint64(gid.Add(1)), dist)
						pace := 0
						for pb.Next() {
							f := fd.Next()
							if ring {
								// Watermark check amortized over a small window:
								// the scan reads every shard's mirror and ring,
								// and paying it per packet would charge O(shards)
								// loads to the ring datapath only. In-flight ring
								// commands are demand the pool check cannot see
								// yet; pace against both.
								if pace == 0 {
									for cm.FreeSegments() < lowWater+cm.RingOccupancy()*5 {
										runtime.Gosched()
									}
									pace = 32
								}
								pace--
								if err := cm.EnqueueAsync(f, pkt); err != nil {
									b.Error(err)
									return
								}
								continue
							}
							for {
								_, err := cm.EnqueuePacket(f, pkt)
								if err == nil {
									break
								}
								if !errors.Is(err, ErrNoFreeSegments) {
									b.Error(err)
									return
								}
								runtime.Gosched() // pool full: wait for the consumers
							}
						}
					})
					elapsed := time.Since(start)
					b.StopTimer()
					close(stop)
					consWG.Wait()
					// Snapshot deliveries before the post-window drain: packets
					// still buffered or in flight at the cutoff must not count
					// toward the timed window's delivery rate, or a datapath
					// could look fast by buffering instead of delivering.
					window := cm.Stats().DequeuedPackets
					if ring {
						if err := cm.Drain(); err != nil {
							b.Fatal(err)
						}
					}
					for {
						out := cm.DequeueNextBatch(256)
						if len(out) == 0 {
							break
						}
						for _, d := range out {
							cm.ReleaseBuffer(d.Data)
						}
					}
					st := cm.Stats()
					b.ReportMetric(float64(window)/elapsed.Seconds()/1e6, "Mdeliv/s")
					b.ReportMetric(float64(st.DequeuedPackets)/float64(b.N), "deliv/op")
					b.ReportMetric(float64(st.Rejected)/float64(b.N), "rej/op")
				})
			}
		}
	}
}

// BenchmarkEnginePorts measures the port-level transmit subsystem against
// the pull loop it replaces, at 1/4/16 output ports. Producers offer
// packets with pool-watermark pacing while the egress side drains one of
// three ways: "pull" is the pre-port baseline — one goroutine per port
// calling DequeueNextBatch; "push" registers a per-port Sink and lets the
// engine's port workers deliver (the acceptance bar is push within 10% of
// pull); "shaped" adds a 1 GiB/s-per-port token bucket, measuring the
// shaper's bookkeeping overhead rather than actual throttling. The
// headline metric is Mdeliv/s — packets delivered inside the timed
// window.
func BenchmarkEnginePorts(b *testing.B) {
	const drainBatch = 64
	for _, mode := range []string{"pull", "push", "shaped"} {
		for _, ports := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("mode=%s/ports=%d", mode, ports), func(b *testing.B) {
				cfg := ConcurrentConfig{
					Flows:    DefaultFlows,
					Segments: 1 << 17,
					Shards:   8,
					Ports:    ports,
				}
				if mode == "shaped" {
					cfg.PortRate = PortShaper(1<<30, 1<<20)
				}
				cm, err := NewConcurrentEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for f := 0; f < DefaultFlows; f++ {
					if err := cm.SetFlowPort(uint32(f), f%ports); err != nil {
						b.Fatal(err)
					}
				}
				stop := make(chan struct{})
				var consWG sync.WaitGroup
				if mode == "pull" {
					for c := 0; c < ports; c++ {
						consWG.Add(1)
						go func() {
							defer consWG.Done()
							for {
								out := cm.DequeueNextBatch(drainBatch)
								for _, d := range out {
									cm.ReleaseBuffer(d.Data)
								}
								if len(out) == 0 {
									select {
									case <-stop:
										return
									default:
										runtime.Gosched()
									}
								}
							}
						}()
					}
				} else {
					for p := 0; p < ports; p++ {
						if err := cm.Serve(p, SinkFunc(func(d DequeuedPacket) error {
							cm.ReleaseBuffer(d.Data)
							return nil
						})); err != nil {
							b.Fatal(err)
						}
					}
				}
				pkt := make([]byte, 320)
				// Watermark flow control as in the pipeline benchmark: pace
				// producers against pool occupancy so no mode can look fast
				// by shedding load at the physical limit.
				lowWater := (1 << 17) / 8
				var gid atomic.Uint32
				b.SetParallelism(2)
				b.ResetTimer()
				start := time.Now()
				b.RunParallel(func(pb *testing.PB) {
					fd := benchFlowDist(b, uint64(gid.Add(1)))
					for pb.Next() {
						f := fd.Next()
						for {
							_, err := cm.EnqueuePacket(f, pkt)
							if err == nil {
								break
							}
							if !errors.Is(err, ErrNoFreeSegments) {
								b.Error(err)
								return
							}
							if cm.FreeSegments() < lowWater {
								runtime.Gosched() // pool full: wait for egress
								continue
							}
							runtime.Gosched()
						}
					}
				})
				elapsed := time.Since(start)
				b.StopTimer()
				// Deliveries inside the timed window only — snapshot before
				// any consumer is told to stop, so pull-mode's exit-path
				// backlog drain cannot count where push-mode's would not and
				// skew the pull-vs-push comparison.
				window := cm.Stats().DequeuedPackets
				close(stop)
				consWG.Wait()
				deadline := time.Now().Add(30 * time.Second)
				for cm.Stats().QueuedSegments > 0 && time.Now().Before(deadline) {
					if mode == "pull" {
						out := cm.DequeueNextBatch(256)
						for _, d := range out {
							cm.ReleaseBuffer(d.Data)
						}
					} else {
						time.Sleep(time.Millisecond)
					}
				}
				if err := cm.Close(); err != nil {
					b.Fatal(err)
				}
				st := cm.Stats()
				if mode != "pull" && st.TransmittedPackets != st.DequeuedPackets {
					b.Fatalf("port workers transmitted %d of %d dequeued packets",
						st.TransmittedPackets, st.DequeuedPackets)
				}
				b.ReportMetric(float64(window)/elapsed.Seconds()/1e6, "Mdeliv/s")
				b.ReportMetric(float64(st.Throttled)/float64(b.N), "throttle/op")
			})
		}
	}
}

// BenchmarkEngineHierarchy measures the level-stack scheduler on the
// push-mode transmit path: "flat" is the single-list baseline (depth-0
// stack — no per-level cost at all), "classes8" layers eight WRR classes
// over the same single port, "tenants8" layers eight WRR tenants outside
// those classes (the full three-level tenant → class → flow stack), and
// "wide" spreads the flows over 1024 shaped ports in eight classes — the
// configuration the per-shard timing-wheel pacer exists for (one pacer
// goroutine per shard, not one worker per port). The shaped rate sits far
// above the offered load so the benchmark measures scheduling and pacing
// bookkeeping, not throttling. The headline metric is Mdeliv/s — packets
// delivered inside the timed window; benchstat gates the ns/op of all
// cases in CI. (The ~10% hierarchy acceptance bar is measured in the
// drain-dominated qmsim scenario recorded in EXPERIMENTS.md, not here:
// under this benchmark's pool-full lockstep every delivery admits one
// packet, which taxes the sparse-port wakeup path hardest on few-core
// hosts.)
func BenchmarkEngineHierarchy(b *testing.B) {
	cases := []struct {
		name   string
		ports  int
		shaped bool
		egress EgressConfig
	}{
		{"flat", 1, false, RoundRobinEgress()},
		{"classes8", 1, false, ClassLayer(RoundRobinEgress(), 8, EgressWRR, 4, 4, 2, 2, 1, 1, 1, 1)},
		{"tenants8", 1, false, TenantLayer(
			ClassLayer(RoundRobinEgress(), 8, EgressWRR, 4, 4, 2, 2, 1, 1, 1, 1),
			8, EgressWRR, 4, 4, 2, 2, 1, 1, 1, 1)},
		{"wide", 1024, true, ClassLayer(RoundRobinEgress(), 8, EgressWRR, 4, 4, 2, 2, 1, 1, 1, 1)},
	}
	for _, dist := range []string{"uniform", "zipf"} {
		for _, tc := range cases {
			b.Run(benchName(tc.name, dist), func(b *testing.B) {
				cfg := ConcurrentConfig{
					Flows:    DefaultFlows,
					Segments: 1 << 17,
					Shards:   8,
					Ports:    tc.ports,
					Egress:   tc.egress,
				}
				if tc.shaped {
					cfg.PortRate = PortShaper(1<<30, 1<<20)
				}
				cm, err := NewConcurrentEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for f := 0; f < DefaultFlows; f++ {
					if tc.ports > 1 {
						if err := cm.SetFlowPort(uint32(f), f%tc.ports); err != nil {
							b.Fatal(err)
						}
					}
					if nc := cm.NumClasses(); nc > 1 {
						if err := cm.SetFlowClass(uint32(f), f%nc); err != nil {
							b.Fatal(err)
						}
					}
					// Tenants cut across classes ((f/8)%8) so both levels
					// actually rotate instead of collapsing onto one axis.
					if nt := cm.NumTenants(); nt > 1 {
						if err := cm.SetFlowTenant(uint32(f), (f/8)%nt); err != nil {
							b.Fatal(err)
						}
					}
				}
				for p := 0; p < tc.ports; p++ {
					if err := cm.Serve(p, SinkFunc(func(d DequeuedPacket) error {
						cm.ReleaseBuffer(d.Data)
						return nil
					})); err != nil {
						b.Fatal(err)
					}
				}
				pkt := make([]byte, 320)
				// Watermark flow control as in the ports benchmark: pace
				// producers against pool occupancy so no configuration can look
				// fast by shedding load.
				lowWater := (1 << 17) / 8
				var gid atomic.Uint32
				b.SetParallelism(2)
				b.ResetTimer()
				start := time.Now()
				b.RunParallel(func(pb *testing.PB) {
					fd := benchFlowDistKind(b, uint64(gid.Add(1)), dist)
					for pb.Next() {
						f := fd.Next()
						for {
							_, err := cm.EnqueuePacket(f, pkt)
							if err == nil {
								break
							}
							if !errors.Is(err, ErrNoFreeSegments) {
								b.Error(err)
								return
							}
							if cm.FreeSegments() < lowWater {
								runtime.Gosched() // pool full: wait for egress
								continue
							}
							runtime.Gosched()
						}
					}
				})
				elapsed := time.Since(start)
				b.StopTimer()
				// Deliveries inside the timed window only (see EnginePorts).
				window := cm.Stats().DequeuedPackets
				deadline := time.Now().Add(30 * time.Second)
				for cm.Stats().QueuedSegments > 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if err := cm.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(window)/elapsed.Seconds()/1e6, "Mdeliv/s")
			})
		}
	}
}

// BenchmarkEngineShardedBatch is the batched variant: bursts of 64 packets
// per EnqueueBatch/DequeueBatch call, locking each shard once per burst.
func BenchmarkEngineShardedBatch(b *testing.B) {
	const burst = 64
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cm, err := NewConcurrentQueueManager(DefaultFlows, 1<<17, shards)
			if err != nil {
				b.Fatal(err)
			}
			pkt := make([]byte, 320)
			b.SetBytes(int64(len(pkt) * burst))
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
					if _, errs := cm.EnqueueBatch(batch); errs != nil {
						for _, err := range errs {
							if err != nil {
								b.Error(err)
								return
							}
						}
					}
					pkts, errs := cm.DequeueBatch(flows)
					for j, err := range errs {
						if err != nil {
							b.Error(err)
							return
						}
						cm.ReleaseBuffer(pkts[j])
					}
				}
			})
		})
	}
}

// BenchmarkEnginePolicy measures the admission-policy overhead on the
// enqueue/dequeue round trip: "none" is the policy-free baseline; the
// acceptance bar is tail-drop within 10% of it (the tail check is two
// integer compares under a lock already held). The traffic pattern keeps
// queues shallow so no policy actually drops — this isolates the cost of
// consulting the policy, not of dropping.
func BenchmarkEnginePolicy(b *testing.B) {
	cases := []struct {
		name     string
		adm      AdmissionConfig
		segments int
		overload bool // two enqueues per dequeue into a pool the load outruns
	}{
		{"none", AdmissionConfig{}, 1 << 17, false},
		{"tail", TailDrop(64), 1 << 17, false},
		{"lqd", LQD(), 1 << 17, false},
		{"red", RED(0.25, 0.75, 0.1, 0.002), 1 << 17, false},
		// The push-out path: the pool fills within the first few thousand
		// iterations and from then on every other arrival elects a victim
		// and evicts. Allocations are reported because the overload path
		// is pinned at zero (internal/engine TestLQDOverloadNoAllocs).
		{"lqd-overload", LQD(), 1 << 12, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cm, err := NewConcurrentEngine(ConcurrentConfig{
				Flows:     DefaultFlows,
				Segments:  tc.segments,
				Shards:    16,
				Admission: tc.adm,
			})
			if err != nil {
				b.Fatal(err)
			}
			pkt := make([]byte, 320)
			b.SetBytes(int64(len(pkt)))
			if tc.overload {
				b.ReportAllocs()
			}
			var gid atomic.Uint32
			b.RunParallel(func(pb *testing.PB) {
				fd := benchFlowDist(b, uint64(gid.Add(1)))
				for pb.Next() {
					f := fd.Next()
					if tc.overload {
						// A lost race for the freed space is a counted drop
						// or refusal, not a benchmark failure; any other
						// error is.
						for _, flow := range [2]uint32{f, fd.Next()} {
							if _, err := cm.EnqueuePacket(flow, pkt); err != nil &&
								!errors.Is(err, ErrAdmissionDrop) && !errors.Is(err, ErrNoFreeSegments) {
								b.Error(err)
								return
							}
						}
						if d, ok := cm.DequeueNext(); ok {
							cm.ReleaseBuffer(d.Data)
						}
						continue
					}
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
				Shards:   16,
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
					cm, err := NewConcurrentEngine(ConcurrentConfig{Flows: DefaultFlows, Segments: 1 << 18, Shards: 4})
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

// BenchmarkQueueEngine measures the raw functional engine (no timing),
// the fast path a downstream user of the library hits.
func BenchmarkQueueEngine(b *testing.B) {
	qm, err := NewQueueManager(DefaultFlows, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	pkt := make([]byte, 320)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := uint32(i % DefaultFlows)
		if _, err := qm.EnqueuePacket(q, pkt); err != nil {
			b.Fatal(err)
		}
		if _, err := qm.DequeuePacket(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegstore compares the shared segment store against the old
// static per-shard pool split at the allocation layer. Each worker holds a
// live set of segments and churns (alloc one, trim to target): "uniform"
// sizes every worker's target just under an even pool share; "zipf" skews
// demand so the hottest workers want several times their share. Under the
// static split the hot workers' allocations fail once their private pool
// is exhausted — capacity stranded in the cold workers' pools — while the
// shared store serves the skew from one pool. The fail metric reports
// failed allocations per successful one.
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
				srcs := make([]segstore.Source, workers)
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
					per := pool / workers
					for w := range srcs {
						p, err := segstore.NewPrivate(segstore.Config{NumSegments: per})
						if err != nil {
							b.Fatal(err)
						}
						srcs[w] = p
					}
				}
				var fails, oks atomic.Uint64
				var gid atomic.Uint32
				b.RunParallel(func(pb *testing.PB) {
					w := int(gid.Add(1)-1) % workers
					src := srcs[w]
					held := make([]int32, 0, tgt[w]+1)
					for pb.Next() {
						if s, ok := src.Alloc(); ok {
							held = append(held, s)
							oks.Add(1)
						} else {
							fails.Add(1)
						}
						for len(held) > tgt[w] {
							src.Free(held[len(held)-1])
							held = held[:len(held)-1]
						}
					}
					for _, s := range held {
						src.Free(s)
					}
				})
				if oks.Load() > 0 {
					b.ReportMetric(float64(fails.Load())/float64(oks.Load()), "fails/alloc")
				}
			})
		}
	}
}
