// Concurrent: the sharded engine under a producer/consumer fleet — M
// goroutines enqueue packets across the full 32K-flow space while K
// goroutines drain them through the engine's integrated egress scheduler,
// the way a multi-core packet processor splits RX and TX work. Admission
// runs the shared-buffer Longest Queue Drop policy, so when producers
// outrun consumers the buffer sheds load by pushing out the hoarding
// flows instead of blocking the RX path. At the end the example prints
// aggregate throughput and verifies segment conservation (enqueued =
// dequeued + pushed-out + resident).
package main

import (
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"npqm"
)

const (
	producers  = 4
	consumers  = 2
	flows      = 32 * 1024
	shards     = 16
	segments   = 1 << 17 // 128K segments = 8 MB of 64-byte buffers
	perProd    = 100_000
	packetSize = 320 // 5 segments, the paper's Table 5 reference burst
)

func main() {
	cm, err := npqm.NewConcurrentEngine(npqm.ConcurrentConfig{
		Flows:     flows,
		Segments:  segments,
		Shards:    shards,
		Admission: npqm.LQD(),
		Egress:    npqm.RoundRobinEgress(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sharded engine: %d shards, %d flows, %d segments (%d KB buffer), LQD admission\n",
		cm.Config().Shards, flows, segments, segments*npqm.SegmentBytes/1024)
	fmt.Printf("%d producers x %d packets, %d consumers on the integrated scheduler\n\n",
		producers, perProd, consumers)

	var produced, consumed, dropped atomic.Uint64
	var prodWG, consWG sync.WaitGroup
	start := time.Now()

	// Producers: each walks its own stride through the flow space in
	// bursts, using the batched enqueue path (one shard lock per burst
	// per shard instead of one per packet). Under LQD every burst is
	// admitted — overload is shed by push-out, not producer spinning.
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			const burst = 64
			pkt := make([]byte, packetSize)
			i := uint32(0)
			for sent := 0; sent < perProd; {
				n := burst
				if perProd-sent < n {
					n = perProd - sent
				}
				batch := make([]npqm.PacketEnqueue, 0, n)
				for j := 0; j < n; j++ {
					f := (uint32(p)*2654435761 + i*40503) % flows
					i++
					batch = append(batch, npqm.PacketEnqueue{Flow: f, Data: pkt})
				}
				_, errs := cm.EnqueueBatch(batch)
				if errs == nil { // nil means every packet was accepted
					produced.Add(uint64(len(batch)))
					sent += n
					continue
				}
				for _, err := range errs {
					switch {
					case err == nil:
						produced.Add(1)
					case errors.Is(err, npqm.ErrAdmissionDrop):
						// LQD admits by evicting the globally longest
						// queue; under heavy multi-producer contention an
						// arrival can lose the race for freed space a few
						// times and be dropped. Rare, and counted by the
						// engine's drop statistics.
						dropped.Add(1)
					case errors.Is(err, npqm.ErrNoFreeSegments):
						// Physical-limit refusal: free segments existed
						// pool-wide but stayed stranded in other shards'
						// caches across the bounded flush retries. Treat
						// like a full buffer and move on.
					default:
						log.Fatalf("enqueue failed: %v", err)
					}
				}
				sent += n
			}
		}(p)
	}

	// Consumers: no flow polling — the engine's egress scheduler picks the
	// next active flows and each batch locks each shard at most once.
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				batch := cm.DequeueNextBatch(64)
				for _, pkt := range batch {
					consumed.Add(1)
					cm.ReleaseBuffer(pkt.Data)
				}
				if len(batch) == 0 {
					select {
					case <-done:
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}()
	}

	prodWG.Wait()
	close(done)
	consWG.Wait()
	elapsed := time.Since(start)
	transited := consumed.Load() // packets that made it through the timed window

	// Drain whatever the consumers left behind after the cutoff.
	for {
		batch := cm.DequeueNextBatch(256)
		if len(batch) == 0 {
			break
		}
		for _, pkt := range batch {
			consumed.Add(1)
			cm.ReleaseBuffer(pkt.Data)
		}
	}

	st := cm.Stats()
	if produced.Load() != consumed.Load()+st.PushedOutPackets {
		log.Fatalf("packet conservation violated: %d produced, %d consumed + %d pushed out",
			produced.Load(), consumed.Load(), st.PushedOutPackets)
	}
	if dropped.Load() != st.DroppedPackets {
		log.Fatalf("drop accounting mismatch: saw %d, engine counted %d",
			dropped.Load(), st.DroppedPackets)
	}
	if err := cm.CheckInvariants(); err != nil {
		log.Fatalf("invariants: %v", err)
	}

	mpps := float64(transited) / elapsed.Seconds() / 1e6
	gbps := float64(transited) * packetSize * 8 / elapsed.Seconds() / 1e9
	fmt.Printf("transited %d packets in %v (+%d drained after cutoff): %.2f Mpps, %.2f Gbps\n",
		transited, elapsed.Round(time.Millisecond), consumed.Load()-transited, mpps, gbps)
	fmt.Printf("LQD pushed out %d packets (%d segments) under overload; %d arrivals dropped in eviction races\n",
		st.PushedOutPackets, st.PushedOutSegments, st.DroppedPackets)
	fmt.Printf("pool restored: %d/%d segments free, %d flows active\n\n",
		cm.FreeSegments(), segments, cm.Stats().ActiveFlows)
	fmt.Printf("paper context: the MMS sustains %.2f Gbps in hardware at 125 MHz;\n",
		npqm.HeadlineThroughputGbps())
	fmt.Println("sharding is how software chases that number on multi-core.")
}
