package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/traffic"
	"npqm/internal/xrand"
)

// Tests for the LQD arrival path (arrive / relief / electVictim): drop
// decisions against the reference model (model_test.go), the Rejected
// accounting, the allocation-free overload path, and a datapath switch
// mid-arrival.

// ingestFn is one way of getting a packet into the engine.
type ingestFn func(e *Engine, flow uint32, pkt []byte) error

func ingestEnqueue(e *Engine, flow uint32, pkt []byte) error {
	_, err := e.EnqueuePacket(flow, pkt)
	return err
}

func ingestReserve(e *Engine, flow uint32, pkt []byte) error {
	r, err := e.ReservePacket(flow, len(pkt))
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

var ingests = []struct {
	name string
	fn   ingestFn
}{{"enqueue", ingestEnqueue}, {"reserve", ingestReserve}}

// TestLQDMatchesReferenceModel replays a seeded IMIX/zipf overload stream
// (64 offered, 32 served per step, as bench's overload-lqd-steps) through
// each ingest path, and the reference model holds every arrival's fate and
// every push-out to LQD over one buffer. One shard is LQD as defined; four
// shards must not be told apart from it.
func TestLQDMatchesReferenceModel(t *testing.T) {
	const flows, offer = 255, 64
	steps := 48
	if raceEnabled || testing.Short() {
		steps = 16
	}
	for _, shards := range []int{1, 4} {
		for _, in := range ingests {
			t.Run(fmt.Sprintf("shards%d/%s", shards, in.name), func(t *testing.T) {
				fd, err := traffic.NewFlowDist(traffic.FlowDistConfig{Kind: traffic.FlowZipf, Flows: flows, Skew: 1.2, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				mix, err := traffic.NewSizeMix(traffic.SizeMixConfig{Kind: traffic.MixIMIX, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				s := script{}
				for range steps {
					for range offer {
						if flow, size := int(fd.Next()), bytesArg(mix.Next()); in.name == "enqueue" {
							s = s.do(cEnqueue, flow, size)
						} else {
							s = s.do(cReserve, flow, size).do(cSettle, 0)
						}
					}
					s = s.rep(4, cNextBatch, 8<<1)
				}
				h := runEngine(t, Config{Shards: shards, NumFlows: flows, NumSegments: 2048,
					Admission: policy.Config{Kind: policy.KindLQD}}, false, s)
				if h.m.c.PushedOutPackets == 0 {
					t.Fatal("the stream never overloaded the pool: nothing was pushed out")
				}
			})
		}
	}
}

// TestRejectedCountsCallerVisibleRefusals: Stats.Rejected is the number of
// calls refused for want of room (pool dry, flow at its cap), not the
// number of internal attempts and not the caller's own malformed calls. An
// overloaded LQD engine retries inside one arrival — after a push-out,
// after fetching free segments stranded in another shard's cache — and
// none of those passes is a refusal the caller saw; the reference model,
// which knows no retries, holds the counters to that after every call.
func TestRejectedCountsCallerVisibleRefusals(t *testing.T) {
	const flows, jumbo = 64, 63 // the jumbo flow is uncapped: only the pool refuses it
	rng := xrand.New(3)
	s := script{}
	for f := range jumbo {
		s = s.do(cLimit, f, 12)
	}
	for i := range 2000 {
		// Skewed onto a few flows so they hit their caps, with the odd
		// arrival larger than the pool; serving a packet every other
		// arrival leaves free segments in whichever shard's cache.
		flow, size := rng.Intn(4), segsArg(1+rng.Intn(6))
		if rng.Bool(0.4) {
			flow = rng.Intn(flows)
		}
		if i%500 == 499 {
			flow, size = jumbo, segsArg(35)
		}
		if i%2 == 0 {
			s = s.do(cEnqueue, flow, size)
		} else {
			s = s.do(cReserve, flow, size).do(cSettle, 0).do(cNext, 0)
		}
	}
	// Malformed calls are the caller's errors: an empty packet, a flow
	// outside the flow space, an empty reservation.
	s = s.do(cEnqueue, 1, 255).do(cEnqueue, flows, segsArg(1)).do(cReserve, 1, 255)
	h := runEngine(t, Config{Shards: 4, NumFlows: flows, NumSegments: 32,
		Admission: policy.Config{Kind: policy.KindLQD}}, false, s)
	if c := h.m.c; c.Rejected == 0 || c.DroppedPackets == 0 || c.PushedOutPackets == 0 {
		t.Fatalf("load shape broke: %d rejected, %d dropped, %d pushed out: all three must occur",
			c.Rejected, c.DroppedPackets, c.PushedOutPackets)
	}
}

// TestLQDOverloadNoAllocs pins the overload path at zero allocations per
// arrival in steady state, in each of the three shapes relief takes: the
// elected victim on the arrival's own shard (pushed out in place), on
// another shard (visited between two critical sections), and a pool that is
// not short at all but whose free segments sit in another shard's cache.
func TestLQDOverloadNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; alloc pin is meaningless")
	}
	const flows, pool = 256, 1024
	one := seg(1)
	for _, in := range ingests {
		setup := func(t *testing.T) (e *Engine, hog, remote uint32) {
			e, err := New(Config{
				Shards: 4, NumFlows: flows, NumSegments: pool,
				Admission: policy.Config{Kind: policy.KindLQD},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := e.CheckInvariants(); err != nil {
					t.Error(err)
				}
				e.Close()
			})
			for remote = 1; e.shardIndex(remote) == e.shardIndex(hog); remote++ {
			}
			// The hog fills the whole pool from its shard: depot and every
			// cache are empty from here on.
			for i := 0; i < pool; i++ {
				if err := in.fn(e, hog, one); err != nil {
					t.Fatal(err)
				}
			}
			return e, hog, remote
		}
		t.Run(in.name+"/local-victim", func(t *testing.T) {
			e, hog, _ := setup(t)
			before := e.Stats().PushedOutPackets
			if n := testing.AllocsPerRun(200, func() {
				if err := in.fn(e, hog, one); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%.2f allocations per arrival, want 0", n)
			}
			if got := e.Stats().PushedOutPackets - before; got != 201 {
				t.Errorf("%d push-outs for 201 arrivals into a full pool", got)
			}
		})
		t.Run(in.name+"/remote-victim", func(t *testing.T) {
			e, _, remote := setup(t)
			before := e.Stats().PushedOutPackets
			if n := testing.AllocsPerRun(200, func() {
				if err := in.fn(e, remote, one); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%.2f allocations per arrival, want 0", n)
			}
			if got := e.Stats().PushedOutPackets - before; got != 201 {
				t.Errorf("%d push-outs for 201 arrivals into a full pool", got)
			}
		})
		t.Run(in.name+"/stranded", func(t *testing.T) {
			e, hog, remote := setup(t)
			before := e.Stats()
			if n := testing.AllocsPerRun(200, func() {
				// The served segment lands in the hog shard's cache; the
				// arrival's shard can reach neither it nor anything else.
				data, err := e.DequeuePacket(hog)
				if err != nil {
					t.Fatal(err)
				}
				e.ReleaseBuffer(data)
				if err := in.fn(e, remote, one); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%.2f allocations per serve+arrival, want 0", n)
			}
			st := e.Stats()
			if st.PushedOutPackets != before.PushedOutPackets || st.Rejected != 0 {
				t.Errorf("stranded arrivals pushed out %d packets and counted %d rejections, want 0 and 0",
					st.PushedOutPackets-before.PushedOutPackets, st.Rejected)
			}
		})
	}
}

// TestLQDArrivalsSurviveStart: four producers overload a small LQD pool on
// four shards while the engine switches datapath under them. An arrival
// caught between its own shard and a victim's must resolve through the ring
// — no deadlock, no packet enqueued twice or lost from the books.
func TestLQDArrivalsSurviveStart(t *testing.T) {
	const flows, pool, producers, perProducer = 64, 512, 4, 4000
	e, err := New(Config{
		Shards: 4, NumFlows: flows, NumSegments: pool,
		Admission: policy.Config{Kind: policy.KindLQD},
	})
	if err != nil {
		t.Fatal(err)
	}
	var offered, accepted, inFlight atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := xrand.New(uint64(p) + 1)
			pkt := make([]byte, 8*queue.SegmentBytes)
			for i := 0; i < perProducer; i++ {
				flow := uint32(rng.Intn(flows))
				size := 1 + rng.Intn(len(pkt)-1)
				inFlight.Add(1)
				err := ingests[(i+p)%2].fn(e, flow, pkt[:size])
				inFlight.Add(-1)
				offered.Add(1)
				switch {
				case err == nil:
					accepted.Add(1)
				case !errors.Is(err, ErrAdmissionDrop) && !errors.Is(err, queue.ErrNoFreeSegments):
					t.Errorf("producer %d arrival %d: %v", p, i, err)
					return
				}
				if i%3 == 0 {
					if d, ok := e.DequeueNext(); ok {
						e.ReleaseBuffer(d.Data)
					}
				}
			}
		}(p)
	}
	// Switch once the pool is overloaded and arrivals are mid-call.
	for e.Stats().PushedOutPackets < 100 || inFlight.Load() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("producers still blocked 60 s after Start: deadlock between an arrival and the datapath switch")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if got := int64(st.EnqueuedPackets); got != accepted.Load() {
		t.Errorf("engine enqueued %d packets, producers saw %d accepted of %d offered", got, accepted.Load(), offered.Load())
	}
	// enqueued = dequeued + pushed-out + resident, and
	// free + queued + lent == pool.
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.LentSegments != 0 || st.FreeSegments+st.QueuedSegments != pool {
		t.Errorf("pool of %d: %d free + %d queued + %d lent", pool, st.FreeSegments, st.QueuedSegments, st.LentSegments)
	}
}
