package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/policy"
	"npqm/internal/traffic"
)

// seqPayload encodes a per-flow sequence number so FIFO can be audited
// after the fact.
func seqPayload(seq uint32) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, seq)
	return b
}

// TestSkewedConservationFIFO drives a zipf-skewed posted load at the
// command rings while a consumer enters the same shards: one shard's ring
// takes most of the posts, and the consumer and the shard's worker drain it
// in turn. Two producers own disjoint flow subsets
// (even/odd), so per-flow sequence numbers are single-writer; the consumer
// audits per-flow FIFO online, and the engine-wide conservation invariants
// are checked once everything has drained. Meant to run under -race
// -shuffle=on.
func TestSkewedConservationFIFO(t *testing.T) {
	const (
		flows      = 512
		perProd    = 15000
		producers  = 2
		segments   = 4096
		shardCount = 4
	)
	e, err := New(Config{
		Shards:      shardCount,
		NumFlows:    flows,
		NumSegments: segments,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	// lastSeen[flow] is the last audited sequence number + 1; the single
	// consumer and the post-drain sweep are serialized, so plain writes.
	lastSeen := make([]uint32, flows)
	audit := func(flow uint32, data []byte) {
		seq := binary.LittleEndian.Uint32(data)
		if seq < lastSeen[flow] {
			t.Errorf("flow %d: seq %d after %d — per-flow FIFO violated", flow, seq, lastSeen[flow]-1)
		}
		lastSeen[flow] = seq + 1
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // consumer: keeps the pool drained, audits FIFO online
		defer wg.Done()
		for {
			batch := e.DequeueNextBatch(64)
			for _, d := range batch {
				audit(d.Flow, d.Data)
				e.ReleaseBuffer(d.Data)
			}
			select {
			case <-stop:
				if len(batch) == 0 {
					return
				}
			default:
				if len(batch) == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
	}()

	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			dist, err := traffic.NewFlowDist(traffic.FlowDistConfig{
				Kind: traffic.FlowZipf, Flows: flows / producers,
				Skew: 1.8, Seed: uint64(p + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			seqs := make([]uint32, flows)
			for i := 0; i < perProd; i++ {
				// Disjoint flow spaces: producer p owns flows ≡ p (mod producers).
				flow := dist.Next()*producers + uint32(p)
				if err := e.EnqueueAsync(flow, seqPayload(seqs[flow])); err != nil {
					t.Error(err)
					return
				}
				seqs[flow]++
			}
		}(p)
	}
	prodWG.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after skewed run: %v", err)
	}
	st := e.Stats()
	if st.EnqueuedSegments != st.DequeuedSegments+st.PushedOutSegments+uint64(st.QueuedSegments) {
		t.Fatalf("segment conservation: enq %d != deq %d + pushed %d + resident %d",
			st.EnqueuedSegments, st.DequeuedSegments, st.PushedOutSegments, st.QueuedSegments)
	}
}

// TestPacerNotifyBurstNoStrand: a burst of notifies and kicks landing
// while the pacer is mid-drain overflows the capacity-1 wake channel —
// those signals must coalesce (counted), never strand a runnable port.
func TestPacerNotifyBurstNoStrand(t *testing.T) {
	e, err := New(Config{Shards: 1, NumFlows: 16, NumSegments: 512, NumPorts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const flowA, flowB = 0, 1
	if err := e.SetFlowPort(flowB, 1); err != nil {
		t.Fatal(err)
	}

	var txA, txB atomic.Uint64
	slow := SinkVFunc(func(_ int, d Dequeued) error {
		time.Sleep(500 * time.Microsecond) // keep the pacer mid-drain
		txA.Add(1)
		return nil
	})
	fast := SinkVFunc(func(_ int, d Dequeued) error {
		txB.Add(1)
		return nil
	})
	if err := e.ServeViews(0, slow); err != nil {
		t.Fatal(err)
	}
	if err := e.ServeViews(1, fast); err != nil {
		t.Fatal(err)
	}

	const nA, nB = 40, 10
	for i := 0; i < nA; i++ {
		if _, err := e.EnqueuePacket(flowA, []byte("aaaa")); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-drain: port 0's sink is sleeping between packets. Land port 1's
	// traffic plus a kick storm now, so most wake sends find the channel
	// full and coalesce.
	time.Sleep(2 * time.Millisecond)
	for i := 0; i < nB; i++ {
		if _, err := e.EnqueuePacket(flowB, []byte("bb")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := e.Resume(1); err != nil {
			t.Fatal(err)
		}
	}

	waitServed(t, e, "both ports' packets", nil, func() bool { return txA.Load() >= nA && txB.Load() >= nB })
	if got := e.Stats().CoalescedWakes; got == 0 {
		t.Error("kick storm produced no coalesced wakes — the burst never overflowed the wake channel")
	}

	// The parking protocol itself: a pass that comes back short is the first
	// parking scan, and only the idle flag and one confirming scan stand
	// between it and a parked port. The producer spins on the delivery count
	// and answers every delivery with one more single-packet flow on a
	// random shard, so arrivals land while the port is between its short
	// pass and its confirming scan — seen by that scan or announced by
	// notify, whichever side of it they fall. One stranded packet ends the
	// chain and the test.
	for _, rate := range []int64{0, 20_000_000} {
		t.Run(fmt.Sprintf("parking/rate=%d", rate), func(t *testing.T) {
			const flows, chain = 64, 20000
			e, err := New(Config{
				Shards: 4, NumFlows: flows, NumSegments: 512,
				PortRate: policy.ShaperConfig{RateBytesPerSec: rate},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var tx atomic.Uint64
			if err := e.ServeViews(0, SinkVFunc(func(_ int, d Dequeued) error {
				tx.Add(1)
				return nil
			})); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for sent := uint64(0); sent < chain; sent++ {
				if tx.Load() < sent { // packet sent-1 has not left yet
					waitServed(t, e, fmt.Sprintf("packet %d of %d", sent, chain), nil, func() bool { return tx.Load() >= sent })
				}
				if _, err := e.EnqueuePacket(uint32(rng.Intn(flows)), []byte("solo")); err != nil {
					t.Fatal(err)
				}
			}
			waitServed(t, e, "the last packet of the chain", nil, func() bool { return tx.Load() == chain })
		})
	}
}
