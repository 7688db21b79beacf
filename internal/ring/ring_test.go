package ring

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// popWait is the consumer loop the engine's shard worker runs, as one call:
// wait for work, pop a batch, and report closed once the ring is sealed and
// every accepted command has been popped.
func popWait[T any](r *Ring[T], buf []T) (n int, closed bool) {
	for {
		sealed := r.WaitReady()
		if n = r.PopBatch(buf); n > 0 {
			return n, false
		}
		if sealed {
			if r.Drained() {
				return 0, true
			}
			runtime.Gosched() // a claimed slot is still publishing
		}
	}
}

func TestFIFOSingleProducer(t *testing.T) {
	r, err := New[int](8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	for i := 0; i < 5; i++ {
		if err := r.TryPush(i); err != nil {
			t.Fatalf("TryPush(%d): %v", i, err)
		}
	}
	if got := r.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	var buf [1]int
	for i := 0; i < 5; i++ {
		if n := r.PopBatch(buf[:]); n != 1 || buf[0] != i {
			t.Fatalf("PopBatch = %d, value %d, want 1, %d", n, buf[0], i)
		}
	}
	if n := r.PopBatch(buf[:]); n != 0 {
		t.Fatalf("PopBatch on empty ring returned %d", n)
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 2}, {2, 2}, {3, 4}, {64, 64}, {65, 128}} {
		r, err := New[int](tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cap() != tc.want {
			t.Errorf("New(%d).Cap = %d, want %d", tc.in, r.Cap(), tc.want)
		}
	}
	if _, err := New[int](0); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New[int](-4); err == nil {
		t.Error("New(-4) succeeded")
	}
}

func TestFullAndWrap(t *testing.T) {
	r, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	// Fill, drain, and refill across several laps so the sequence windows
	// wrap the slot array repeatedly.
	next := 0
	for lap := 0; lap < 10; lap++ {
		for i := 0; i < 4; i++ {
			if err := r.TryPush(next + i); err != nil {
				t.Fatalf("lap %d TryPush: %v", lap, err)
			}
		}
		if err := r.TryPush(99); !errors.Is(err, ErrFull) {
			t.Fatalf("lap %d push on full ring: %v, want ErrFull", lap, err)
		}
		buf := make([]int, 8)
		n := r.PopBatch(buf)
		if n != 4 {
			t.Fatalf("lap %d PopBatch = %d, want 4", lap, n)
		}
		for i := 0; i < 4; i++ {
			if buf[i] != next+i {
				t.Fatalf("lap %d slot %d = %d, want %d", lap, i, buf[i], next+i)
			}
		}
		next += 4
	}
}

func TestMPSCConservationAndOrder(t *testing.T) {
	const producers = 8
	const perProducer = 10_000
	r, err := New[[2]int](256) // (producer, seq)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := r.Push([2]int{p, i}); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		r.Close()
	}()

	lastSeq := make([]int, producers)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	total := 0
	buf := make([][2]int, 64)
	for {
		n, closed := popWait(r, buf)
		for _, v := range buf[:n] {
			p, seq := v[0], v[1]
			if seq != lastSeq[p]+1 {
				t.Fatalf("producer %d: seq %d after %d (per-producer FIFO broken)", p, seq, lastSeq[p])
			}
			lastSeq[p] = seq
			total++
		}
		if closed {
			break
		}
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d commands, want %d", total, producers*perProducer)
	}
}

func TestCloseUnblocksAndRefuses(t *testing.T) {
	r, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	// Park the consumer on an empty ring, then close from another goroutine.
	done := make(chan struct{})
	go func() {
		buf := make([]int, 4)
		n, closed := popWait(r, buf)
		if n != 0 || !closed {
			t.Errorf("consumer after Close = (%d, %v), want (0, true)", n, closed)
		}
		close(done)
	}()
	r.Close()
	<-done
	if err := r.TryPush(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPush after Close: %v, want ErrClosed", err)
	}
	if err := r.Push(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after Close: %v, want ErrClosed", err)
	}
	if !r.Drained() {
		t.Fatal("Drained() = false after Close on an empty ring")
	}
	r.Close() // double close is safe
}

func TestCloseDrainsPending(t *testing.T) {
	r, err := New[int](8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := r.TryPush(i); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	buf := make([]int, 4)
	got := 0
	for {
		n, closed := popWait(r, buf)
		got += n
		if closed {
			break
		}
	}
	if got != 6 {
		t.Fatalf("drained %d commands after Close, want 6", got)
	}
}

func TestPushBackpressure(t *testing.T) {
	r, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	var consumed atomic.Int64
	done := make(chan struct{})
	go func() {
		buf := make([]int, 4)
		for {
			n, closed := popWait(r, buf)
			consumed.Add(int64(n))
			if closed {
				close(done)
				return
			}
		}
	}()
	// Far more pushes than capacity: Push must block-and-retry, never drop.
	const total = 5000
	for i := 0; i < total; i++ {
		if err := r.Push(i); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	r.Close()
	<-done
	if consumed.Load() != total {
		t.Fatalf("consumed %d, want %d", consumed.Load(), total)
	}
}
