// iprouter: per-flow queuing for an IP router with NAT — two more of the
// applications the paper's Section 6 lists ("IP routing", "Network Address
// Translation").
//
// IMIX traffic over many 5-tuple flows is classified onto the 32K flow
// queues by hashing, NAT rewrites the source (with the translation table
// keyed by flow), and the engine's deficit-round-robin egress shares the
// link fairly by bytes across the active flows despite their different
// packet sizes.
package main

import (
	"fmt"
	"log"

	"npqm"
	"npqm/internal/packet"
	"npqm/internal/traffic"
)

const (
	flowQueues = 256 // active flow queues for this port
	packets    = 30000
)

func main() {
	// One shard: the router models a single egress link, and deficit
	// round-robin (quantum = one max-size packet) arbitrates among its flows.
	qm, err := npqm.NewConcurrentEngine(npqm.ConcurrentConfig{
		Flows: flowQueues, Segments: 1 << 14, Shards: 1,
		Egress: npqm.DRREgress(1518),
	})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := traffic.NewGenerator(traffic.Config{
		RateGbps: 2.0, Flows: flowQueues, Sizes: traffic.IMIX,
		Proc: traffic.Poisson, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// NAT table: flow key -> translated source (allocated on first use).
	nat := make(map[packet.FlowKey]uint32)
	nextNATPort := uint32(1 << 20)

	enqueued := make([]int, flowQueues)
	payload := make([]byte, 1518)

	for i := 0; i < packets; i++ {
		a := gen.Next()
		// The 5-tuple is stable per generated flow, so NAT bindings are
		// allocated once per flow and reused by its later packets.
		key := packet.FlowKey{
			SrcIP:   0x0a000000 | a.Flow,
			DstIP:   0xc0a80000 | (a.Flow * 7 % (1 << 16)),
			SrcPort: uint16(1024 + a.Flow%60000),
			DstPort: 443,
			Proto:   6,
		}
		if _, ok := nat[key]; !ok {
			nat[key] = nextNATPort
			nextNATPort++
		}
		q := key.Hash(flowQueues)
		// A full buffer refuses the packet whole; the router drops it.
		if _, err := qm.EnqueuePacket(uint32(q), payload[:a.Bytes]); err == nil {
			enqueued[q]++
		}
	}

	// Drain the egress link in the order the engine's DRR serves it.
	sentBytes := make([]int, flowQueues)
	var sentPackets int
	for {
		d, ok := qm.DequeueNext()
		if !ok {
			break
		}
		sentBytes[d.Flow] += d.Bytes
		sentPackets++
		qm.ReleaseBuffer(d.Data)
	}

	var minB, maxB, total int
	minB = 1 << 30
	active := 0
	for q := 0; q < flowQueues; q++ {
		if enqueued[q] == 0 {
			continue
		}
		active++
		total += sentBytes[q]
		if sentBytes[q] < minB {
			minB = sentBytes[q]
		}
		if sentBytes[q] > maxB {
			maxB = sentBytes[q]
		}
	}
	fmt.Printf("IP router: %d IMIX packets over %d active flow queues, %d NAT bindings\n",
		sentPackets, active, len(nat))
	fmt.Printf("  DRR byte shares: min %d, max %d, mean %d (per active flow)\n",
		minB, maxB, total/active)
	fmt.Printf("  pool free after drain: %d/%d segments\n", qm.FreeSegments(), qm.Config().NumSegments)
	if err := qm.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  invariants hold")
}
