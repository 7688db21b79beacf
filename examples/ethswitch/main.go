// ethswitch: an Ethernet switch output port with 802.1p QoS, one of the
// applications the paper lists as accelerated by the MMS ("Ethernet
// switching (with QoS e.g. 802.1p, 802.1q)").
//
// Tagged frames are classified by their priority code point (PCP) onto
// eight class queues. The 802.1p priorities are expressed directly with
// the engine's class layer: ClassLayer wraps the flow-level egress
// config with an eight-class scheduling level, SetFlowClass homes each
// class queue in its class, and the port's scheduler arbitrates classes
// first — strict priority, then 4:4:2:2:1:1:1:1 weighted round robin —
// before round-robining flows within the winning class. Egress runs on
// the push-mode transmit path: the classes feed one output port whose
// token-bucket shaper enforces the line rate in real time, paced by the
// per-shard timing wheel, into a counting sink. Ingress offers 2:1
// congestion (paced in real time), a tail-drop admission policy caps
// each class's share of the shared buffer, and a mid-run Pause/Resume
// on the port models link-level flow control: transmission stops, the
// backlog holds, drops spike at the caps, and service resumes where it
// left off.
//
// The third run adds the tenant level: two customers share the port
// under 3:1 weighted round robin (TenantLayer outside ClassLayer — the
// full tenant → class → flow stack), each with its own eight 802.1p
// class queues. While both tenants stay backlogged, the premium tenant's
// share of the transmitted frames must track its 3:1 weight — the run
// checks that parity at the congestion cutoff and fails if the
// hierarchy's outer level drifts from its configuration.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"npqm"
	"npqm/internal/packet"
	"npqm/internal/traffic"
)

const (
	classes   = 8
	frames    = 40000
	perClass  = 256          // tail-drop cap per class queue (segments)
	lineRate  = 4 << 20      // egress line rate, bytes/sec (scaled-down link)
	offerRate = 2 * lineRate // offered load: 2:1 congestion
	burstSize = 64           // frames offered per pacing tick
	pauseAt   = frames / 2   // frame index where the link "deasserts"
	pauseFor  = 60 * time.Millisecond
)

func main() {
	for _, policy := range []string{"strict", "wrr", "tenant"} {
		if err := run(policy); err != nil {
			log.Fatal(err)
		}
	}
}

func run(policy string) error {
	// The whole 802.1p policy is the class layer: eight classes over a
	// round-robin flow level, arbitrated strict-priority or 4:4:2:2:1:1:1:1
	// weighted round robin. The tenant run wraps that in a third level —
	// two customers arbitrated 3:1 outside the class priorities.
	egress := npqm.ClassLayer(npqm.RoundRobinEgress(), classes, npqm.EgressPrio)
	tenants := 1
	tenantWeights := []int{1}
	switch policy {
	case "wrr":
		egress = npqm.ClassLayer(npqm.RoundRobinEgress(), classes, npqm.EgressWRR,
			4, 4, 2, 2, 1, 1, 1, 1)
	case "tenant":
		tenants = 2
		tenantWeights = []int{3, 1}
		egress = npqm.TenantLayer(egress, tenants, npqm.EgressWRR, tenantWeights...)
	}
	flows := classes * tenants
	// One shard: the class queues share one pool, one scheduler and one
	// shaped output port, like a single line card. Class 0 is the highest
	// priority (PCP 7); queue q belongs to tenant q/classes, class
	// q%classes.
	cm, err := npqm.NewConcurrentEngine(npqm.ConcurrentConfig{
		Flows:     flows,
		Segments:  2048,
		Shards:    1,
		Admission: npqm.TailDrop(perClass),
		Egress:    egress,
		Ports:     1,
		PortRate:  npqm.PortShaper(lineRate, 2048),
	})
	if err != nil {
		return err
	}
	// Home each queue in its scheduling class and tenant (flows start in
	// class 0, tenant 0).
	for q := 0; q < flows; q++ {
		if err := cm.SetFlowClass(uint32(q), q%classes); err != nil {
			return err
		}
		if tenants > 1 {
			if err := cm.SetFlowTenant(uint32(q), q/classes); err != nil {
				return err
			}
		}
	}

	// Push-mode egress on the zero-copy path: the engine's port worker
	// hands this sink a view over each frame's segment chain — read in
	// place, never reassembled into a buffer. The engine releases the view
	// when SendView returns (a NIC-style sink finishing transmission
	// asynchronously would Retain it first).
	delivered := make([]atomic.Uint64, flows)
	var txBytes atomic.Uint64
	if err := cm.ServeViews(0, npqm.SinkVFunc(func(_ int, d npqm.DequeuedView) error {
		delivered[d.Flow].Add(1)
		txBytes.Add(uint64(d.View.Len()))
		return nil
	})); err != nil {
		return err
	}

	gen, err := traffic.NewGenerator(traffic.Config{
		RateGbps: 2.0, Flows: flows, Sizes: traffic.Min64,
		Proc: traffic.OnOff, Seed: 99,
	})
	if err != nil {
		return err
	}

	var (
		offered      = make([]int, flows)
		dropped      = make([]int, flows)
		dropsAtPause [2]uint64 // drops before/after the pause window
	)
	src := packet.MAC{0x02, 0, 0, 0, 0, 1}

	// Offer 2:1 congestion in real time: bursts on an absolute schedule.
	burstEvery := time.Duration(burstSize*64) * time.Second / time.Duration(offerRate)
	start := time.Now()
	paused := false
	for i := 0; i < frames; i++ {
		if i%burstSize == 0 {
			next := start.Add(time.Duration(i/burstSize) * burstEvery)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		if i == pauseAt {
			// Link-level flow control deasserts: the port stops
			// transmitting, the backlog holds, arrivals keep coming.
			if err := cm.Pause(0); err != nil {
				return err
			}
			dropsAtPause[0] = cm.Stats().DroppedPackets
			paused = true
		}
		if paused && time.Since(start.Add(time.Duration(pauseAt/burstSize)*burstEvery)) >= pauseFor {
			if err := cm.Resume(0); err != nil {
				return err
			}
			dropsAtPause[1] = cm.Stats().DroppedPackets
			paused = false
		}
		a := gen.Next()
		// Build and parse a tagged frame: PCP = flow index (class); the
		// generator's flow also selects the arriving tenant.
		pcp := uint8(a.Flow % classes)
		tenant := int(a.Flow) / classes % tenants
		frame := packet.BuildEth(packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, src, 1, pcp,
			packet.EtherTypeIPv4, make([]byte, 46))
		parsed, err := packet.ParseEth(frame)
		if err != nil {
			return err
		}
		// 802.1p: higher PCP = higher priority; class queue 0 is served
		// first by the priority egress, so PCP 7 maps to class 0.
		class := tenant*classes + int(7-parsed.PCP)
		offered[class]++

		// Write-in-place ingest: reserve the frame's segment run (admission
		// tail-drops beyond each class's cap while the port lags the
		// offered load), scatter the frame into the reserved slices as a
		// readv-style receiver would, then splice it onto the queue. The
		// engine never copies the payload — CopiedBytes stays zero.
		r, err := cm.ReservePacket(uint32(class), 64)
		if err != nil {
			if !errors.Is(err, npqm.ErrAdmissionDrop) {
				return err
			}
			dropped[class]++
			continue
		}
		off := 0
		r.Range(func(seg []byte) bool {
			off += copy(seg, frame[off:64])
			return true
		})
		if err := r.Commit(); err != nil {
			return err
		}
	}
	if paused {
		if err := cm.Resume(0); err != nil {
			return err
		}
		dropsAtPause[1] = cm.Stats().DroppedPackets
	}

	// End of offer: snapshot the standing backlog and what each queue
	// had delivered under congestion, then let the shaped port drain.
	queued := make([]int, flows)
	deliveredAtCutoff := make([]uint64, flows)
	for q := 0; q < flows; q++ {
		n, err := cm.Len(uint32(q))
		if err != nil {
			return err
		}
		queued[q] = n
		deliveredAtCutoff[q] = delivered[q].Load()
	}
	deadline := time.Now().Add(10 * time.Second)
	for cm.Stats().QueuedSegments > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	st := cm.Stats()
	pst := cm.PortStats()[0]
	if err := cm.CheckInvariants(); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}
	if err := cm.Close(); err != nil {
		return err
	}
	fmt.Printf("== %s scheduler: %d frames offered at 2:1 over a %d B/s shaped port ==\n",
		policy, frames, lineRate)
	fmt.Printf("%5s %6s %5s %9s %9s %9s %12s\n", "queue", "tenant", "pcp", "offered", "sent", "dropped", "queued@cutoff")
	for q := 0; q < flows; q++ {
		fmt.Printf("%5d %6d %5d %9d %9d %9d %12d\n",
			q, q/classes, 7-q%classes, offered[q], delivered[q].Load(), dropped[q], queued[q])
	}
	if tenants > 1 {
		// Tenant parity: while both tenants stayed backlogged the WRR
		// level granted service 3:1, so the cutoff shares must track the
		// weights (the post-cutoff drain no longer competes).
		var cut [2]uint64
		for q := 0; q < flows; q++ {
			cut[q/classes] += deliveredAtCutoff[q]
		}
		total := cut[0] + cut[1]
		if total == 0 || cut[1] == 0 {
			return fmt.Errorf("tenant parity: no congested service to compare (%d/%d)", cut[0], cut[1])
		}
		ratio := float64(cut[0]) / float64(cut[1])
		fmt.Printf("tenants@cutoff: premium %d (%.0f%%), best-effort %d (%.0f%%) — served ratio %.2f vs %d:%d configured\n",
			cut[0], 100*float64(cut[0])/float64(total),
			cut[1], 100*float64(cut[1])/float64(total),
			ratio, tenantWeights[0], tenantWeights[1])
		want := float64(tenantWeights[0]) / float64(tenantWeights[1])
		if ratio < want*0.7 || ratio > want*1.5 {
			return fmt.Errorf("tenant parity check failed: served ratio %.2f drifted from the configured %.0f:1", ratio, want)
		}
	}
	fmt.Printf("port: %d frames (%d bytes) transmitted, %d shaper waits; pause window added %d drops\n",
		pst.TransmittedPackets, pst.TransmittedBytes, pst.Throttled, dropsAtPause[1]-dropsAtPause[0])
	fmt.Printf("engine: %d admission drops counted, %d flows still active\n",
		st.DroppedPackets, st.ActiveFlows)
	fmt.Printf("zero-copy: %d bytes read in place by the sink, %d bytes copied by the engine, %d segments lent\n\n",
		txBytes.Load(), st.CopiedBytes, st.LentSegments)
	return nil
}
