package engine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

// Tests for the delivery path's fixed costs: the one-object buffer pool,
// the section-end publication of the free-count mirror, and the single
// result-slice allocation of a batch.

// --- buffer pool contract ---

// imixSizes is the IMIX size set, cycled deterministically.
var imixSizes = []int{64, 576, 1500}

// TestBufferPoolAllocs: in steady state a copy-delivered packet costs no
// allocation — its buffer is one pooled object, picked to fit — and a batch
// costs exactly its one result slice, whatever the packet sizes.
func TestBufferPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; alloc pin is meaningless")
	}
	for _, tc := range []struct {
		name  string
		sizes []int
	}{{"64B", []int{64}}, {"1500B", []int{1500}}, {"imix", imixSizes}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTest(t, 4, 256, 1<<14)
			pkt := make([]byte, 1500)
			k := 0
			fill := func(n int) {
				for i := 0; i < n; i++ {
					if _, err := e.EnqueuePacket(uint32(k%256), pkt[:tc.sizes[k%len(tc.sizes)]]); err != nil {
						t.Fatal(err)
					}
					k++
				}
			}
			if got := testing.AllocsPerRun(50, func() {
				fill(64)
				out := e.DequeueNextBatch(64)
				if len(out) != 64 {
					t.Fatalf("batch served %d of 64", len(out))
				}
				for i := range out {
					e.ReleaseBuffer(out[i].Data)
				}
			}); got != 1 {
				t.Errorf("DequeueNextBatch(64) + 64 ReleaseBuffer: %.0f allocations, want 1 (the result slice)", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				fill(1)
				d, ok := e.DequeueNext()
				if !ok {
					t.Fatal("DequeueNext idle with backlog")
				}
				e.ReleaseBuffer(d.Data)
			}); got != 0 {
				t.Errorf("DequeueNext + ReleaseBuffer: %.0f allocations, want 0", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				flow := uint32(k % 256)
				fill(1)
				data, err := e.DequeuePacket(flow)
				if err != nil {
					t.Fatal(err)
				}
				e.ReleaseBuffer(data)
			}); got != 0 {
				t.Errorf("DequeuePacket + ReleaseBuffer: %.0f allocations, want 0", got)
			}
		})
	}
}

// TestBufferPoolClasses: a packet is served in the smallest class that
// holds it, never regrown; a buffer released at a class is served again at
// that class, empty; a capacity outside the classes is not pooled.
func TestBufferPoolClasses(t *testing.T) {
	e := newTest(t, 1, 16, 1024)
	for _, tc := range []struct{ bytes, wantCap int }{
		{1, len(smallBuf{})}, {256, len(smallBuf{})}, {257, len(mtuBuf{})}, {1500, len(mtuBuf{})},
		{1537, len(maxBuf{})}, {maxPooledBufBytes, len(maxBuf{})}, {maxPooledBufBytes + 1, 65 * queue.SegmentBytes},
	} {
		if _, err := e.EnqueuePacket(1, make([]byte, tc.bytes)); err != nil {
			t.Fatal(err)
		}
		data, err := e.DequeuePacket(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != tc.bytes || cap(data) != tc.wantCap {
			t.Errorf("%d B packet: buffer len %d cap %d, want cap %d", tc.bytes, len(data), cap(data), tc.wantCap)
		}
		e.ReleaseBuffer(data)
		if again := e.getBuf(segsFor(tc.bytes)); len(again) != 0 || cap(again) != tc.wantCap {
			t.Errorf("%d B packet: next buffer of its class has len %d cap %d, want 0/%d", tc.bytes, len(again), cap(again), tc.wantCap)
		}
	}
	if !raceEnabled {
		for _, segs := range []int{smallBufSegs, mtuBufSegs, maxPooledBufSegs} {
			if got := testing.AllocsPerRun(100, func() { e.ReleaseBuffer(e.getBuf(segs)) }); got != 0 {
				t.Errorf("class of %d segments: a released buffer was not served again (%.0f allocations per Get/Put)", segs, got)
			}
		}
	}
	// Capacities that are not a class: caller-made, one byte off a class,
	// a class-sized buffer resliced from the front, nil.
	odd := len(smallBuf{}) + 1
	for _, buf := range [][]byte{make([]byte, 10, 100), make([]byte, 0, odd), e.getBuf(1)[:8][4:], nil} {
		e.ReleaseBuffer(buf)
	}
	for i := 0; i < 8; i++ {
		if buf := e.getBuf(1); cap(buf) != len(smallBuf{}) {
			t.Fatalf("pool served a %d-byte buffer from the %d-byte class", cap(buf), len(smallBuf{}))
		}
	}
}

// TestBufferPoolCrossRelease: two consumers release each other's buffers
// while a producer keeps the engine fed. A buffer handed out twice, or
// reused while its holder still reads it, shows as a payload mismatch (and
// under -race as a data race).
func TestBufferPoolCrossRelease(t *testing.T) {
	const flows, total = 64, 20000
	e := newTest(t, 4, flows, 1<<14)
	var wg sync.WaitGroup
	quit := make(chan struct{})
	quitting := func() bool {
		select {
		case <-quit:
			return true
		default:
			return false
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pkt := make([]byte, 1500)
		for i := 0; i < total; i++ {
			size := imixSizes[i%len(imixSizes)]
			for j := 0; j < size; j += 4 {
				binary.LittleEndian.PutUint32(pkt[j:], uint32(i))
			}
			for !quitting() {
				if _, err := e.EnqueuePacket(uint32(i%flows), pkt[:size]); err == nil {
					break
				}
			}
		}
	}()
	var delivered atomic.Int64
	hand := [2]chan []byte{make(chan []byte, 128), make(chan []byte, 128)}
	var cwg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			defer close(hand[1-c])
			for delivered.Load() < total && !quitting() {
				for _, d := range e.DequeueNextBatch(64) {
					delivered.Add(1)
					tag := binary.LittleEndian.Uint32(d.Data)
					for j := 0; j < len(d.Data); j += 4 {
						if got := binary.LittleEndian.Uint32(d.Data[j:]); got != tag {
							t.Errorf("consumer %d: packet %d carries %d at byte %d: buffer shared while in use", c, tag, got, j)
							return
						}
					}
					select {
					case hand[1-c] <- d.Data: // the other consumer releases it
					default:
						e.ReleaseBuffer(d.Data)
					}
				}
				for more := true; more; {
					select {
					case buf, ok := <-hand[c]:
						if more = ok; ok {
							e.ReleaseBuffer(buf)
						}
					default:
						more = false
					}
				}
			}
		}(c)
	}
	waitServed(t, e, fmt.Sprintf("the consumers to take %d packets", total), func() {
		close(quit)
		wg.Wait()
		cwg.Wait()
	}, func() bool { return delivered.Load() >= total })
	wg.Wait()
	cwg.Wait()
	for c := range hand {
		for buf := range hand[c] {
			e.ReleaseBuffer(buf)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- mirror invariant ---

// TestMirrorExactOutsideSections drives every entry point that allocates or
// frees segments, on one goroutine, under LQD in a pool small enough that
// arrivals push out locally and remotely and fetch stranded segments — and
// after every single call holds each shard's mirror to its cache, and the
// lock-free FreeSegments to the engine's own books. A critical-section exit
// that skipped the publication fails at the call that took it.
func TestMirrorExactOutsideSections(t *testing.T) {
	const flows, pool = 128, 2048
	for _, shards := range []int{1, 4} {
		for _, ring := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards%d/ring=%v", shards, ring), func(t *testing.T) {
				e, err := New(Config{
					Shards: shards, NumFlows: flows, NumSegments: pool,
					Admission: policy.Config{Kind: policy.KindLQD},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if ring {
					if err := e.Start(); err != nil {
						t.Fatal(err)
					}
				}
				check := func(after string) {
					t.Helper()
					if ring {
						if err := e.Drain(); err != nil { // EnqueueAsync is fire-and-forget
							t.Fatal(err)
						}
					}
					free := e.FreeSegments()     // before any call that enters a shard
					for i, s := range e.shards { // mirror vs magazines; no shard is in a section
						if err := s.cache.CheckInvariants(); err != nil {
							t.Fatalf("after %s: shard %d: %v", after, i, err)
						}
					}
					st := e.Stats()
					if free != st.FreeSegments || free+st.QueuedSegments+st.LentSegments != pool {
						t.Fatalf("after %s: FreeSegments %d, books say %d free + %d queued + %d lent of %d",
							after, free, st.FreeSegments, st.QueuedSegments, st.LentSegments, pool)
					}
				}
				pkt := make([]byte, 1500)
				batch := make([]EnqueueReq, 32)
				flowList := make([]uint32, 8)
				steps := 400
				if raceEnabled || testing.Short() {
					steps = 120
				}
				for step := 0; step < steps; step++ {
					f := uint32(step*7) % (flows - 3) // f+1..f+3 stay in range
					size := imixSizes[step%len(imixSizes)]
					_, _ = e.EnqueuePacket(f, pkt[:size])
					check("EnqueuePacket")
					_ = e.EnqueueAsync(f+1, pkt[:size])
					check("EnqueueAsync")
					for i := range batch {
						batch[i] = EnqueueReq{Flow: (f + uint32(i)*5) % flows, Data: pkt[:imixSizes[(step+i)%len(imixSizes)]]}
						flowList[i%len(flowList)] = batch[i].Flow
					}
					_, _ = e.EnqueueBatch(batch)
					check("EnqueueBatch")
					if r, err := e.ReservePacket(f, size); err == nil {
						check("ReservePacket")
						if step%5 == 0 {
							_ = r.Abort()
							check("Abort")
						} else {
							if err := r.Commit(); err != nil {
								t.Fatal(err)
							}
							check("Commit")
						}
					}
					if data, err := e.DequeuePacket(f); err == nil {
						e.ReleaseBuffer(data)
					}
					check("DequeuePacket")
					if d, ok := e.DequeueNext(); ok {
						e.ReleaseBuffer(d.Data)
					}
					check("DequeueNext")
					for _, d := range e.DequeueNextBatch(8) {
						e.ReleaseBuffer(d.Data)
					}
					check("DequeueNextBatch")
					if step%4 == 0 {
						pkts, _ := e.DequeueBatch(flowList)
						for _, p := range pkts {
							e.ReleaseBuffer(p)
						}
						check("DequeueBatch")
					}
					if v, err := e.DequeuePacketView(f + 1); err == nil {
						check("DequeuePacketView")
						v.Release()
						check("PacketView.Release")
					}
					if d, ok := e.DequeueNextView(); ok {
						d.View.Release()
					}
					check("DequeueNextView")
					e.ReleaseViews(e.DequeueNextViewBatch(4))
					check("DequeueNextViewBatch")
					_, _ = e.MovePacket(f+2, f+3)
					check("MovePacket")
					_, _ = e.DeletePacket(f + 3)
					check("DeletePacket")
				}
				if e.Stats().PushedOutPackets == 0 {
					t.Fatal("the pool never filled: no arrival pushed out")
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFreeSegmentsBoundedUnderConcurrency: with a producer, a batch
// consumer and an observer running, the lock-free pool-wide count never
// leaves [0, pool] — a section's allocations and frees are never counted
// twice however stale the mirrors it reads — and after a full drain it is
// exactly the pool, on the synchronous datapath, after Start and after
// Close.
func TestFreeSegmentsBoundedUnderConcurrency(t *testing.T) {
	const flows, pool, perPhase = 64, 4096, 30000
	e, err := New(Config{
		Shards: 4, NumFlows: flows, NumSegments: pool,
		Admission: policy.Config{Kind: policy.KindTailDrop},
	})
	if err != nil {
		t.Fatal(err)
	}
	phase := func(name string) {
		var consumed atomic.Int64
		var accepted atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { // producer
			defer wg.Done()
			pkt := make([]byte, 1500)
			for i := 0; i < perPhase; i++ {
				if _, err := e.EnqueuePacket(uint32(i%flows), pkt[:imixSizes[i%len(imixSizes)]]); err == nil {
					accepted.Add(1)
				}
			}
			close(stop)
		}()
		quit := make(chan struct{})
		go func() { // consumer
			defer wg.Done()
			for {
				out := e.DequeueNextBatch(64)
				for i := range out {
					e.ReleaseBuffer(out[i].Data)
				}
				consumed.Add(int64(len(out)))
				select {
				case <-quit:
					return
				default:
				}
			}
		}()
		go func() { // observer
			defer wg.Done()
			for {
				if free := e.FreeSegments(); free < 0 || free > pool {
					t.Errorf("%s: FreeSegments read %d, outside [0, %d]", name, free, pool)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		<-stop
		finish := func() {
			close(quit)
			wg.Wait()
		}
		waitServed(t, e, name+": the consumer to take every accepted packet", finish, func() bool { return consumed.Load() == accepted.Load() })
		finish()
		if st := e.Stats(); st.FreeSegments != pool || st.QueuedSegments != 0 {
			t.Fatalf("%s: after a full drain %d segments free, %d queued, pool %d", name, st.FreeSegments, st.QueuedSegments, pool)
		}
		if accepted.Load() == 0 {
			t.Fatalf("%s: no arrival was admitted", name)
		}
	}
	phase("sync")
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	phase("ring")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.FreeSegments != pool {
		t.Fatalf("after Close: %d segments free, pool %d", st.FreeSegments, pool)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- a batch of one is not taxed ---

// TestEmptyPollAllocatesNothing: the result slice is allocated when the
// first packet is served, so a poll of an empty engine costs no allocation
// whatever max the caller passes.
func TestEmptyPollAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; alloc pin is meaningless")
	}
	e := newTest(t, 4, 64, 1024)
	defer e.Close()
	for _, datapath := range []string{"sync", "ring"} {
		if datapath == "ring" {
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
		}
		for _, max := range []int{1, 64, 1 << 30} {
			if got := testing.AllocsPerRun(100, func() {
				if out := e.DequeueNextBatch(max); out != nil {
					t.Fatalf("empty engine served %d packets", len(out))
				}
				if out := e.DequeueNextViewBatch(max); out != nil {
					t.Fatalf("empty engine served %d views", len(out))
				}
			}); got != 0 {
				t.Errorf("%s: empty DequeueNext[View]Batch(%d): %.0f allocations, want 0", datapath, max, got)
			}
		}
	}
}
