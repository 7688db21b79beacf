// Package ring provides the bounded multi-producer single-consumer command
// ring the engine's posted enqueues travel through.
//
// The paper's queue manager is fed exactly this way: processing elements
// never touch queue state directly — they post commands into per-port FIFO
// command queues and the MMS drains them, pipelining execution (Section 6.1,
// the internal scheduler's command FIFOs). The software analogue is a ring
// per shard: producers publish commands with one atomic claim each, and
// whoever holds the shard's mutex — the one consumer at a time — pops them
// in batches and executes them. The ring itself never serializes consumers;
// it only lets one wait for work (WaitReady) without popping.
//
// The layout is the classic bounded MPMC sequence ring (Vyukov), specialized
// to one consumer: every slot carries a sequence word that encodes whether
// it is free for the producer lapping it or holds a value for the consumer.
// Producers claim slots by CAS on the tail; the consumer walks the head
// without CAS at all, because nobody competes with it. A full ring applies
// backpressure: TryPush refuses, Push spins briefly and then yields until
// the consumer catches up — the bounded command FIFO is exactly what keeps
// a fast producer from outrunning the queue engine, as in the hardware.
package ring

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Sentinel results of the push paths.
var (
	// ErrFull is returned by TryPush when the ring has no free slot.
	ErrFull = errors.New("ring: full")
	// ErrClosed is returned by pushes after Close: the consumer is draining
	// or gone, and no new commands are accepted.
	ErrClosed = errors.New("ring: closed")
)

// pushSpins is how many failed TryPush attempts Push makes before yielding
// the processor. Short: a full ring means the consumer needs CPU.
const pushSpins = 32

// slot pairs a value with its sequence word. seq == pos means the slot is
// free for the producer claiming position pos; seq == pos+1 means it holds
// the value published at pos and is ready for the consumer; after
// consumption seq becomes pos+capacity, freeing it for the producer one lap
// ahead.
type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// closedBit is sealed into the tail word by Close. Packing it into the
// same word producers CAS to claim slots makes the close race-free: a
// producer that loaded a clean tail just before Close cannot claim
// afterwards — its CAS fails because the word changed — so the consumer's
// final "drained when head catches the sealed tail" check cannot miss a
// late claim, and no accepted command is ever stranded in a ring whose
// consumer has exited.
const closedBit = uint64(1) << 63

// padBytes separates the ring's hot words. Two cache lines, not one:
// modern x86 prefetchers pull adjacent line pairs, so 64-byte spacing
// still ping-pongs under producer/consumer contention. The layout test
// (layout_test.go) pins these distances so they cannot silently regress.
const padBytes = 128

// Ring is a bounded MPSC queue. Any number of goroutines may push; exactly
// one goroutine may pop at a time — consumers hand off, serialized
// externally, as the engine's shard mutex does. The zero value is not
// usable; call New.
type Ring[T any] struct {
	slots []slot[T]
	mask  uint64

	_        [padBytes]byte // keep the producer and consumer hot words apart
	tail     atomic.Uint64  // producers CAS; carries the closedBit seal
	_        [padBytes]byte
	head     atomic.Uint64 // written only by the consumer; atomic for Len readers
	_        [padBytes]byte
	sleeping atomic.Bool // producers load per push; CAS only on wake
	_        [padBytes]byte
	wake     chan struct{}
}

// New returns a ring with at least the given capacity (rounded up to a
// power of two; minimum 2).
func New[T any](capacity int) (*Ring[T], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("ring: capacity must be positive, got %d", capacity)
	}
	if capacity < 2 {
		capacity = 2
	}
	if capacity&(capacity-1) != 0 {
		capacity = 1 << bits.Len(uint(capacity))
	}
	r := &Ring[T]{
		slots: make([]slot[T], capacity),
		mask:  uint64(capacity - 1),
		wake:  make(chan struct{}, 1),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r, nil
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Len returns the approximate number of queued commands — approximate
// because producers and the consumer move concurrently. Safe from any
// goroutine; used for occupancy telemetry.
func (r *Ring[T]) Len() int {
	n := int64(r.tail.Load()&^closedBit) - int64(r.head.Load())
	if n < 0 {
		return 0
	}
	if n > int64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// TryPush publishes v without blocking. It returns ErrFull when no slot is
// free and ErrClosed after Close.
func (r *Ring[T]) TryPush(v T) error {
	pos := r.tail.Load()
	for {
		if pos&closedBit != 0 {
			return ErrClosed
		}
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			// If Close sealed the tail between the load and here, the CAS
			// fails (the word changed) and the reload observes the seal —
			// a claim can never succeed on a closed ring.
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1)
				r.wakeConsumer()
				return nil
			}
			pos = r.tail.Load()
		case d < 0:
			// The slot is still owned by the consumer one lap behind: full.
			return ErrFull
		default:
			// Another producer claimed pos; reload and chase the tail.
			pos = r.tail.Load()
		}
	}
}

// Push publishes v, applying backpressure: when the ring is full it spins
// briefly, then yields the processor until the consumer frees a slot. The
// only error is ErrClosed.
func (r *Ring[T]) Push(v T) error {
	for spin := 0; ; spin++ {
		err := r.TryPush(v)
		if err != ErrFull { //nolint:errorlint // internal sentinel, never wrapped
			return err
		}
		if spin >= pushSpins {
			// The consumer needs the CPU more than we need the slot.
			runtime.Gosched()
		}
	}
}

// PopBatch moves up to len(buf) commands into buf and returns how many. It
// never blocks, and it stops at a slot whose producer has claimed it but not
// yet published: a short count does not mean the ring is empty (compare Len,
// which counts claims). Must be called only by the current consumer.
func (r *Ring[T]) PopBatch(buf []T) int {
	head := r.head.Load()
	n := 0
	for n < len(buf) {
		s := &r.slots[head&r.mask]
		if s.seq.Load() != head+1 {
			break // empty, or the producer at head has claimed but not yet published
		}
		buf[n] = s.val
		var zero T
		s.val = zero // drop references so consumed commands don't pin memory
		s.seq.Store(head + r.mask + 1)
		head++
		n++
	}
	if n > 0 {
		r.head.Store(head)
	}
	return n
}

// WaitReady blocks until a command is ready at the head or the ring is
// closed, without popping anything: consumption is serialized outside the
// ring, so the waiter must not touch the head. At most one goroutine may
// wait at a time. closed=true means the tail is sealed, NOT that the ring is
// drained — commands already claimed may still be publishing; poll Drained
// for the exit condition. A false return is only a hint: another consumer
// may have popped the command meanwhile, and the caller re-checks.
func (r *Ring[T]) WaitReady() (closed bool) {
	for {
		if r.peek() {
			return false
		}
		if r.tail.Load()&closedBit != 0 {
			return true
		}
		// Announce intent to sleep, then re-check: a producer that published
		// after the peek but before the announcement would otherwise never
		// wake us (the classic sleeper/waker race, closed by the sequentially
		// consistent flag).
		r.sleeping.Store(true)
		if r.peek() || r.tail.Load()&closedBit != 0 {
			r.sleeping.Store(false)
			continue
		}
		<-r.wake
	}
}

// Drained reports that the ring is closed and every accepted command has
// been popped: head has caught the sealed tail. Safe from any goroutine.
func (r *Ring[T]) Drained() bool {
	tail := r.tail.Load()
	return tail&closedBit != 0 && r.head.Load() == tail&^closedBit
}

// peek reports whether a published command is ready at the head.
func (r *Ring[T]) peek() bool {
	head := r.head.Load()
	return r.slots[head&r.mask].seq.Load() == head+1
}

// wakeConsumer signals a parked waiter. The flag keeps the channel
// operation off the push fast path: producers pay one atomic load unless
// the waiter is actually parked.
func (r *Ring[T]) wakeConsumer() {
	if r.sleeping.Load() && r.sleeping.CompareAndSwap(true, false) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// Close seals the ring and wakes the waiter. Pushes after Close return
// ErrClosed — the seal lives in the tail word producers CAS, so a push
// cannot slip past it — while commands already claimed remain poppable:
// every claim is always followed by a publish, so the ring is truly drained
// exactly when the consumer has caught up with the sealed tail (Drained).
// Safe to call more than once.
func (r *Ring[T]) Close() {
	r.tail.Or(closedBit)
	// Unconditional wake: Close must not race-lose against a waiter that
	// just announced sleeping.
	r.sleeping.Store(false)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}
