package engine

// The port-level transmit subsystem. The paper's queue manager feeds
// output ports: its transmission interface drains per-port FIFOs at line
// rate, with the scheduler deciding which flow each port serves next.
// This file is that interface in software. Every flow belongs to exactly
// one port (Config.NumPorts, SetFlowPort; all flows start on port 0),
// each (shard, port) pair owns an N-level scheduling unit (see
// egress.go), and a port served through ServeViews (views.go) is driven by
// the engine's one pacer goroutine (see pacer.go): it picks via the
// configured tenant, class and flow disciplines, paces against the port's
// token-bucket shaper (see shaper.go), and pushes packet views into the
// registered sink — push-mode delivery with backpressure, beside the
// DequeueNextBatch pull loop, which serves every port's flows.
//
// Pause/Resume model link-level flow control (a paused port holds its
// backlog and transmits nothing); SetPortRate reshapes at runtime. An
// idle port drops out of the pacer's structures entirely: the enqueue
// path's setActive re-queues it with one atomic flag check, so an idle
// port costs nothing per packet elsewhere and nothing while idle.

import (
	"fmt"
	"math"
	"sync/atomic"

	"npqm/internal/policy"
	"npqm/internal/stats"
)

// MaxPorts bounds Config.NumPorts: per-port scheduling state is allocated
// per shard, so the port space is a configuration constant, not a dynamic
// resource.
const MaxPorts = 4096

// port is one output port: shaper, pacer handoff state, and transmit
// counters. The scheduling state lives in the shards (one portSched per
// (shard, port) pair); the service loop lives in the engine's pacer.
type port struct {
	idx int
	sh  *shaper
	pc  *pacer // the engine's pacer; all service for this port runs there

	shardCursor uint32 // rotating start shard; only the pacer touches it

	// Control words, padded off the read-only header: idle is CASed by
	// every enqueue-path notify, so it must not share a line with fields
	// the pacer reads per packet. layout_test.go pins the distances.
	_       [hotPad]byte
	paused  atomic.Bool
	serving atomic.Bool           // ServeViews registered a sink; cleared on error/close
	idle    atomic.Bool           // dropped from the pacer awaiting traffic
	sink    atomic.Pointer[SinkV] // current sink; replaced by each ServeViews

	// Transmit counters: settled once per burst by the pacer (one add
	// each for the packets and bytes the sink accepted), read by
	// PortStats/Stats. Separated from the producer-CASed control words
	// above and from the next heap neighbour below.
	_          [hotPad]byte
	txPackets  atomic.Uint64
	txBytes    atomic.Uint64
	throttled  atomic.Uint64 // times the port parked on the shaper wheel
	sinkPanics atomic.Uint64

	// Inter-departure jitter, tracked for shaped ports only: the pacer
	// stamps every burst once, after its last transmit, and the gap to the
	// previous stamp lands in gaps, with a gap of 0 for each further packet
	// of the burst, so PortStats can report how tightly the wheel tracks
	// the configured rate. txLastNs == noDeparture means no previous
	// departure — set by New, on idle park and on ServeViews, so idle
	// spells don't count as pacing jitter.
	txLastNs atomic.Int64
	gaps     stats.Histogram
	_        [hotPad]byte
}

// noDeparture is a stamp no clock produces: engine time starts at 0.
const noDeparture = math.MinInt64

// noteDepartures records a burst of k > 0 shaped transmits, all stamped
// at engine time now: the gap from the previous departure, then k−1 gaps of
// 0. Called only from the pacer goroutine; the fields are atomics
// because ServeViews and PortStats touch them cross-goroutine.
func (p *port) noteDepartures(now int64, k int) {
	if last := p.txLastNs.Swap(now); last != noDeparture {
		p.gaps.Add(now - last)
	}
	p.gaps.AddN(0, uint64(k-1))
}

// notify re-queues the port on the pacer if (and only if) it went
// idle. Called from setActive inside shard critical sections, so the
// not-serving and port-busy cases must stay one atomic load.
func (p *port) notify() {
	if p.idle.Load() && p.idle.CompareAndSwap(true, false) {
		p.pc.enqueue(int32(p.idx))
	}
}

// kick queues the port for pacer attention unconditionally (ServeViews/Pause/
// Resume/SetPortRate/SetFlowPort): a parked or waiting port re-evaluates;
// for a runnable one the pacer de-duplicates — harmless.
func (p *port) kick() {
	p.pc.enqueue(int32(p.idx))
}

// portAt validates a port index.
func (e *Engine) portAt(port int) (*port, error) {
	if port < 0 || port >= len(e.ports) {
		return nil, fmt.Errorf("engine: port %d out of range [0, %d)", port, len(e.ports))
	}
	return e.ports[port], nil
}

// SetFlowPort moves flow onto port (all flows start on port 0), under
// its current tenant and class. A backlogged flow moves with its queue,
// ending any open visit and forfeiting banked DRR deficit as if it had
// drained (see rehome). Safe while traffic flows.
func (e *Engine) SetFlowPort(flow uint32, port int) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	if err := e.rehome(flow, func(fs *flowState) *int32 { return &fs.port }, port); err != nil {
		return err
	}
	p.kick()
	return nil
}

// SetPortRate reshapes port at runtime: rate 0 removes shaping, a
// positive rate installs a freshly filled bucket (burst defaulting per
// policy.ShaperConfig). Safe while the port transmits.
func (e *Engine) SetPortRate(port int, cfg policy.ShaperConfig) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	p.sh.configure(cfg, e.clk.now())
	p.kick()
	return nil
}

// Pause stops port's transmission: it drops out of the pacer's rotation,
// its backlog holds. Packets keep accumulating on the port's flows
// (admission still applies). Idempotent.
func (e *Engine) Pause(port int) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	p.paused.Store(true)
	p.kick()
	return nil
}

// Resume reverses Pause. Idempotent.
func (e *Engine) Resume(port int) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	p.paused.Store(false)
	p.kick()
	return nil
}

// unshapedBatch is how many packets a port's service round picks at most
// — the same burst the pull loops use, so push-mode delivery pays the
// same per-shard amortization as DequeueNextBatch. A shaped port's round is
// bounded by its tick's byte budget as well.
const unshapedBatch = 64

// dequeuePort serves up to max packets and about room bytes (see
// drainShard) from p's scheduling units as views, appending to out: the
// pull walk (pull) restricted to one port, its start shard rotated by p's
// own cursor. Only the pacer calls it (shardCursor is pacer-local).
func (e *Engine) dequeuePort(p *port, out []Dequeued, max int, room int64) []Dequeued {
	p.shardCursor++
	return e.pull(p.shardCursor, p.idx, true, out, max, room)
}

// PortStat is one port's slice of the transmit-side statistics.
type PortStat struct {
	Port int
	// What the sink accepted. The pacer settles both once per burst (at
	// most 64 packets), after the burst's last SendView — a failed or
	// panicking one included — so a burst in flight is not counted yet.
	TransmittedPackets uint64
	TransmittedBytes   uint64
	Throttled          uint64 // shaper waits (wheel parks awaiting tokens)
	Paused             bool
	Serving            bool
	SinkPanics         uint64 // SendView calls that panicked; each stopped the port like an error
	ActiveFlows        int    // flows with backlog mapped to this port
	RateBytesPerSec    int64  // 0 = unshaped
	BurstBytes         int64
	ShaperTokens       int64 // credit as of now, read without a refill; negative = in debt

	// Inter-departure jitter, measured for shaped ports only (idle
	// spells excluded): how tightly the timing wheel tracks the
	// configured rate. A burst is stamped once, after its last SendView:
	// its first packet's gap runs from the previous burst's stamp and
	// each further packet counts a gap of 0. The mean is exact (the gaps
	// add up to the span between stamps); P99 is a bucket upper bound of
	// a stats.Histogram, at most 25% above the exact order statistic.
	GapSamples uint64
	MeanGapNs  uint64
	P99GapNs   uint64
}

// PortStats returns one entry per port. Counters are cumulative since
// New; the active-flow column is snapshotted per shard (consistent per
// shard, not a global cut).
func (e *Engine) PortStats() []PortStat {
	out := make([]PortStat, len(e.ports))
	now := e.clk.now()
	for i, p := range e.ports {
		rate, burst, tokens := p.sh.occupancy(now)
		out[i] = PortStat{
			Port:               i,
			TransmittedPackets: p.txPackets.Load(),
			TransmittedBytes:   p.txBytes.Load(),
			Throttled:          p.throttled.Load(),
			Paused:             p.paused.Load(),
			Serving:            p.serving.Load(),
			SinkPanics:         p.sinkPanics.Load(),
			RateBytesPerSec:    rate,
			BurstBytes:         burst,
			ShaperTokens:       tokens,
			GapSamples:         p.gaps.N(),
			MeanGapNs:          uint64(p.gaps.Mean()),
			P99GapNs:           uint64(p.gaps.Quantile(0.99)),
		}
	}
	for _, s := range e.shards {
		e.run(s, func() {
			for i := range out {
				out[i].ActiveFlows += s.ps[i].activeFlows
			}
		})
	}
	return out
}
