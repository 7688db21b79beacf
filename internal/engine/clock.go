package engine

// The engine's one time base. Every stamp, deadline and interval in this
// package is an int64 count of nanoseconds since the engine's epoch, read
// through Engine.clk; this file is the only one that touches the wall
// clock (TestWallClockOnlyBehindClock holds the others to that). New
// installs wallClock. A test installs a clock it advances by hand
// (newWithClock) and then plays the pacer goroutine itself, calling
// pacer.step at the instants it chooses, so seconds of shaped traffic run
// in microseconds and land on exact ticks. The clock is deliberately not a
// Config field: no caller of the engine has a second time base to offer.

import "time"

const second = int64(time.Second)

type clock interface {
	now() int64 // ns since the engine's epoch; never decreases
}

// wallClock reads the monotonic clock (time.Since does, for an epoch that
// came from time.Now), so wall-clock steps cannot inflate or starve a
// token bucket.
type wallClock struct{ epoch time.Time }

func newWallClock() wallClock { return wallClock{time.Now()} }

func (c wallClock) now() int64 { return int64(time.Since(c.epoch)) }

// parkTimer is the one timer a pacer goroutine sleeps on, however many
// shaped ports wait on its wheel.
type parkTimer struct{ t *time.Timer }

func newParkTimer() parkTimer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return parkTimer{t}
}

// park blocks until d ns have passed (d < 0: no deadline), wake delivers,
// or stop is closed, which alone it reports as false.
func (p parkTimer) park(d int64, wake, stop <-chan struct{}) bool {
	var fire <-chan time.Time
	if d >= 0 {
		p.t.Reset(time.Duration(d))
		fire = p.t.C
	}
	select {
	case <-fire:
	case <-wake:
		// go.mod's language version gives Stop its Go 1.23 meaning: nothing
		// stale is left in the channel for the next Reset to trip over.
		p.t.Stop()
	case <-stop:
		return false
	}
	return true
}
