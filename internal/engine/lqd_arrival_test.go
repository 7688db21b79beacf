package engine

import (
	"encoding/binary"
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
// decisions against a plain-Go reference model, the Rejected accounting,
// the allocation-free overload path, and a datapath switch mid-arrival.

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

// --- reference model ---

type modelPkt struct {
	seq  uint32
	segs int
}

// lqdModel is Longest Queue Drop over one global buffer, the way the policy
// is defined: per-flow FIFOs, one free counter, and on a full buffer the
// head packet of the longest queue goes — ties to the lowest shard index,
// then the lowest flow ID, which is the engine's documented tie-break.
type lqdModel struct {
	free    int
	q       [][]modelPkt
	segs    []int
	shardOf func(uint32) int
	pushed  uint64
}

func (m *lqdModel) longest() (uint32, bool) {
	best, bestShard, victim := 0, 0, uint32(0)
	for f := range m.q {
		if n, sh := m.segs[f], m.shardOf(uint32(f)); n > best || (n == best && sh < bestShard) {
			best, bestShard, victim = n, sh, uint32(f)
		}
	}
	return victim, best > 0
}

// arrive admits (flow, seq) of need segments, returning the flows pushed
// out to make room, in order.
func (m *lqdModel) arrive(flow, seq uint32, need int) (victims []uint32) {
	for m.free < need {
		v, ok := m.longest()
		if !ok {
			panic("model: buffer short with every queue empty")
		}
		p := m.q[v][0]
		m.q[v] = m.q[v][1:]
		m.segs[v] -= p.segs
		m.free += p.segs
		m.pushed++
		victims = append(victims, v)
	}
	m.q[flow] = append(m.q[flow], modelPkt{seq, need})
	m.segs[flow] += need
	m.free -= need
	return victims
}

// TestLQDMatchesReferenceModel replays one seeded IMIX/zipf overload stream
// (64 offered, 32 served per step, as bench's overload-lqd-steps) into the
// engine and the model, on one goroutine, and holds the engine to the
// model's every decision: which queues each arrival pushed out of, how many
// packets, and the exact per-flow sequence that is eventually delivered.
// One shard is LQD as defined; four shards must not be told apart from it.
func TestLQDMatchesReferenceModel(t *testing.T) {
	const (
		flows, pool  = 512, 8192
		offer, serve = 64, 32
	)
	steps := 768
	if raceEnabled || testing.Short() {
		steps = 256
	}
	for _, shards := range []int{1, 4} {
		for _, in := range ingests {
			t.Run(fmt.Sprintf("shards%d/%s", shards, in.name), func(t *testing.T) {
				e, err := New(Config{
					Shards: shards, NumFlows: flows, NumSegments: pool,
					Admission: policy.Config{Kind: policy.KindLQD},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				fd, err := traffic.NewFlowDist(traffic.FlowDistConfig{Kind: traffic.FlowZipf, Flows: flows, Skew: 1.2, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				mix, err := traffic.NewSizeMix(traffic.SizeMixConfig{Kind: traffic.MixIMIX, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				m := &lqdModel{free: pool, q: make([][]modelPkt, flows), segs: make([]int, flows), shardOf: e.ShardOf}
				nextSeq := make([]uint32, flows)
				pkt := make([]byte, mix.Max())
				cursor := uint32(0)
				for step := 0; step < steps; step++ {
					for i := 0; i < offer; i++ {
						flow, size := fd.Next(), mix.Next()
						seq := nextSeq[flow]
						nextSeq[flow]++
						binary.LittleEndian.PutUint32(pkt[0:], flow)
						binary.LittleEndian.PutUint32(pkt[4:], seq)
						victims := m.arrive(flow, seq, segsFor(size))
						if err := in.fn(e, flow, pkt[:size]); err != nil {
							t.Fatalf("step %d arrival %d (flow %d, %d B): engine refused what LQD admits: %v", step, i, flow, size, err)
						}
						if got := e.Stats().PushedOutPackets; got != m.pushed {
							t.Fatalf("step %d arrival %d: engine pushed out %d packets so far, model %d (victims %v)", step, i, got, m.pushed, victims)
						}
						for _, f := range append(victims, flow) {
							if got, _ := e.Len(f); got != m.segs[f] {
								t.Fatalf("step %d arrival %d: flow %d holds %d segments, model %d (victims %v)", step, i, f, got, m.segs[f], victims)
							}
						}
					}
					for i := 0; i < serve; i++ {
						// Serve the next backlogged flow in ID order: the
						// model, not the egress scheduler, picks, so the
						// test pins admission alone.
						for len(m.q[cursor%flows]) == 0 {
							cursor++
						}
						flow := cursor % flows
						cursor++
						want := m.q[flow][0]
						m.q[flow] = m.q[flow][1:]
						m.segs[flow] -= want.segs
						m.free += want.segs
						data, err := e.DequeuePacket(flow)
						if err != nil {
							t.Fatalf("step %d serve %d: flow %d: %v", step, i, flow, err)
						}
						gotFlow, gotSeq := binary.LittleEndian.Uint32(data[0:]), binary.LittleEndian.Uint32(data[4:])
						if gotFlow != flow || gotSeq != want.seq || segsFor(len(data)) != want.segs {
							t.Fatalf("step %d serve %d: flow %d delivered (flow %d, seq %d, %d B), model says seq %d, %d segments",
								step, i, flow, gotFlow, gotSeq, len(data), want.seq, want.segs)
						}
						e.ReleaseBuffer(data)
					}
					if step%256 == 255 {
						if err := e.CheckInvariants(); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if free := e.FreeSegments(); free != m.free {
							t.Fatalf("step %d: %d segments free, model %d", step, free, m.free)
						}
					}
				}
				if m.pushed == 0 {
					t.Fatal("the stream never overloaded the pool: nothing was pushed out")
				}
			})
		}
	}
}

// TestRejectedCountsCallerVisibleRefusals: Stats.Rejected is the number of
// calls refused for want of room (pool dry, flow at its cap), not the number
// of internal attempts and not the caller's own malformed calls. An overloaded LQD engine retries inside one arrival — after a
// push-out, after fetching free segments stranded in another shard's cache
// — and none of those passes is a refusal the caller saw.
func TestRejectedCountsCallerVisibleRefusals(t *testing.T) {
	const flows, pool, flowCap = 64, 256, 48
	e, err := New(Config{
		Shards: 4, NumFlows: flows, NumSegments: pool,
		Admission: policy.Config{Kind: policy.KindLQD},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// One uncapped flow takes the arrivals larger than the whole pool: on a
	// capped flow the cap, not the policy, would refuse them.
	const jumbo = flows - 1
	for f := uint32(0); f < jumbo; f++ {
		if err := e.SetFlowLimit(f, flowCap); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(3)
	pkt := make([]byte, (pool+1)*queue.SegmentBytes)
	var refused, dropped uint64
	for i := 0; i < 10_000; i++ {
		// Skewed onto a few flows so they hit the per-flow cap (a refusal),
		// with the odd arrival larger than the whole pool (an admission
		// drop); serving a packet every other arrival leaves free segments
		// in whichever shard's cache, so arrivals elsewhere find the pool
		// stocked but their own reach dry.
		flow := uint32(rng.Intn(4))
		if rng.Bool(0.4) {
			flow = uint32(rng.Intn(flows))
		}
		size := (1 + rng.Intn(6)) * queue.SegmentBytes
		if i%500 == 499 {
			flow, size = jumbo, len(pkt)
		}
		in := ingests[i%2].fn
		switch err := in(e, flow, pkt[:size]); {
		case errors.Is(err, ErrAdmissionDrop):
			dropped++
		case err != nil:
			refused++
		}
		if i%2 == 1 {
			if d, ok := e.DequeueNext(); ok {
				e.ReleaseBuffer(d.Data)
			}
		}
	}
	st := e.Stats()
	if refused == 0 || dropped == 0 || st.PushedOutPackets == 0 {
		t.Fatalf("load shape broke: %d refused, %d dropped, %d pushed out — all three must occur", refused, dropped, st.PushedOutPackets)
	}
	if st.Rejected != refused {
		t.Errorf("Rejected = %d, callers saw %d non-admission errors", st.Rejected, refused)
	}
	if st.DroppedPackets != dropped {
		t.Errorf("DroppedPackets = %d, callers saw %d ErrAdmissionDrop", st.DroppedPackets, dropped)
	}
	// A malformed call is refused too, but not for want of room: it is the
	// caller's error and Rejected, which measures buffer pressure, stays.
	for _, bad := range []struct {
		name string
		call func() error
	}{
		{"EnqueuePacket(f, nil)", func() error { _, err := e.EnqueuePacket(1, nil); return err }},
		{"EnqueuePacket(out of range)", func() error { _, err := e.EnqueuePacket(flows+7, pkt[:64]); return err }},
		{"ReservePacket(f, 0)", func() error { _, err := e.ReservePacket(1, 0); return err }},
	} {
		if err := bad.call(); err == nil || errors.Is(err, ErrAdmissionDrop) {
			t.Errorf("%s = %v, want a caller error", bad.name, err)
		}
		if got := e.Stats().Rejected; got != st.Rejected {
			t.Errorf("%s moved Rejected %d -> %d", bad.name, st.Rejected, got)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
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
			for remote = 1; e.ShardOf(remote) == e.ShardOf(hog); remote++ {
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
