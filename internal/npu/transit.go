package npu

// This file adds the dynamic complement to the static Table 3 cost model:
// an event-driven simulation of the Figure 1 prototype forwarding real
// arrival processes. The paper measured its prototype "when real network
// traffic is applied to it" through the MAC + DP-BRAM path; this simulator
// reproduces that setup — packets arrive on the MAC, wait in the staging
// BRAM, the PowerPC runs the enqueue micro-program (and later the dequeue),
// and the measured sustained rate converges to the static TransitMbps
// prediction while also exposing latency and drop behaviour the static
// model cannot show.

import (
	"fmt"

	"npqm/internal/sim"
	"npqm/internal/stats"
	"npqm/internal/traffic"
)

// TransitConfig parameterizes a forwarding simulation.
type TransitConfig struct {
	// Engine selects the segment copy engine (Section 5.3).
	Engine CopyEngine
	// ClockMHz is the CPU/bus clock (0 means the prototype's 100).
	ClockMHz float64
	// OfferedMbps is the offered network load of 64-byte packets.
	OfferedMbps float64
	// StagingFrames is the DP-BRAM capacity in frames (0 means 32: the
	// 4 KB dual-port BRAM holds staged 64-byte frames plus descriptors).
	StagingFrames int
	// Packets is the number of arrivals to simulate (0 means 20000).
	Packets int
	// Seed drives the arrival process.
	Seed uint64
	// Proc selects the arrival process (default CBR).
	Proc traffic.Process
}

func (c TransitConfig) withDefaults() TransitConfig {
	if c.ClockMHz == 0 {
		c.ClockMHz = ClockMHz
	}
	if c.StagingFrames == 0 {
		c.StagingFrames = 32
	}
	if c.Packets == 0 {
		c.Packets = 20000
	}
	return c
}

// TransitResult reports a forwarding run.
type TransitResult struct {
	Offered        float64 // offered load, Mbps
	Delivered      float64 // carried load, Mbps
	Dropped        uint64  // frames lost to staging overflow
	DropRate       float64
	MeanLatencyUs  float64 // arrival to transmit-complete, microseconds
	P99LatencyUs   float64
	CPUUtilization float64 // fraction of cycles the CPU ran queue code
}

// RunTransit simulates the prototype forwarding 64-byte packets at the
// offered load and returns delivered throughput, latency and drop rate.
func RunTransit(cfg TransitConfig) (TransitResult, error) {
	cfg = cfg.withDefaults()
	if cfg.OfferedMbps <= 0 {
		return TransitResult{}, fmt.Errorf("npu: OfferedMbps must be positive, got %v", cfg.OfferedMbps)
	}
	gen, err := traffic.NewGenerator(traffic.Config{
		RateGbps: cfg.OfferedMbps / 1e3,
		Flows:    1024,
		Sizes:    traffic.Min64,
		Proc:     cfg.Proc,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return TransitResult{}, err
	}

	// Per-packet CPU costs in cycles: the enqueue runs when the frame is
	// admitted; the dequeue (towards the MAC) runs right after — the
	// prototype forwards store-and-forward, packet at a time.
	enq := EnqueueCost(true, cfg.Engine).CPUCycles()
	deq := DequeueCost(cfg.Engine).CPUCycles()
	perPacket := sim.Time(enq + deq)

	cyclesPerNs := cfg.ClockMHz / 1e3

	var (
		e         sim.Engine
		staged    int
		queueWait []sim.Time // arrival cycle of each staged frame
		busy      bool
		busyCycle uint64
		delivered uint64
		dropped   uint64
		lat       stats.Welford
		latSamp   []float64
		lastDone  sim.Time
	)

	var serve func(now sim.Time)
	serve = func(now sim.Time) {
		if busy || staged == 0 {
			return
		}
		busy = true
		arrivedAt := queueWait[0]
		queueWait = queueWait[1:]
		e.After(perPacket, func(done sim.Time) {
			staged--
			busy = false
			busyCycle += uint64(perPacket)
			delivered++
			lastDone = done
			l := float64(done-arrivedAt) / cyclesPerNs / 1e3 // microseconds
			lat.Add(l)
			latSamp = append(latSamp, l)
			serve(done)
		})
	}

	arrivals := gen.Take(cfg.Packets)
	for _, a := range arrivals {
		at := sim.Time(a.TimeNs * cyclesPerNs)
		e.At(at, func(now sim.Time) {
			if staged >= cfg.StagingFrames {
				dropped++ // DP-BRAM overflow: the MAC drops the frame
				return
			}
			staged++
			queueWait = append(queueWait, now)
			serve(now)
		})
	}
	e.Run()

	res := TransitResult{
		Offered: cfg.OfferedMbps,
		Dropped: dropped,
	}
	if cfg.Packets > 0 {
		res.DropRate = float64(dropped) / float64(cfg.Packets)
	}
	if lastDone > 0 {
		seconds := float64(lastDone) / (cfg.ClockMHz * 1e6)
		res.Delivered = float64(delivered) * PacketBits / seconds / 1e6
		res.CPUUtilization = float64(busyCycle) / float64(lastDone)
	}
	res.MeanLatencyUs = lat.Mean()
	res.P99LatencyUs = stats.Percentile(latSamp, 99)
	return res, nil
}
