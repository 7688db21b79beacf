// Package ixp models software queue management on the Intel IXP1200 network
// processor, reproducing Table 2 of the paper: the packet rate one or six
// 200 MHz RISC microengines sustain when the queue count forces queue state
// out of the on-chip Scratch memory into external SRAM and SDRAM.
//
// # Model
//
// Each microengine runs the queue-management loop for one packet at a time:
// a fixed instruction budget plus a tier-dependent sequence of memory
// accesses. Following the paper's observation (citing [10]) that the context
// switch overhead of the IXP's hardware multithreading exceeds the memory
// latency for this workload, every access blocks its microengine.
//
// The three memories are shared, single-ported units: an access occupies its
// unit for the pipeline occupancy (during which other microengines queue)
// and returns data after the latency. With six engines the shared units
// contend — mildly for Scratch and SRAM, severely for SDRAM — which is what
// makes the six-engine numbers sublinear, exactly as in Table 2.
//
// # Queue-count tiers
//
// The per-packet access profile depends on how much queue state fits
// on chip (Section 4):
//
//   - up to 16 queues: every queue descriptor lives in Scratch/registers;
//   - up to 128 queues: descriptors spill to external SRAM;
//   - beyond that (1K queues): descriptors and free-list pages thrash
//     between SRAM and SDRAM, and the per-packet cost is dominated by
//     SDRAM traffic.
//
// The profile constants are calibrated so the single-engine rates match
// Table 2 (956/390/60 Kpps); the six-engine rates are then emergent from
// the contention simulation. See EXPERIMENTS.md.
package ixp

import (
	"fmt"

	"npqm/internal/sim"
	"npqm/internal/xrand"
)

// Architectural constants of the IXP1200 (from the paper and the Intel
// IXP1200 datasheet).
const (
	// ClockMHz is the microengine clock.
	ClockMHz = 200
	// NumMicroengines is the full complement of RISC engines.
	NumMicroengines = 6
	// PacketBits is the worst-case packet size the paper uses (64 bytes).
	PacketBits = 64 * 8
)

// Unit identifies a shared memory unit.
type Unit int

// The IXP1200's three data memories.
const (
	Scratch Unit = iota // 4KB on-chip scratchpad
	SRAM                // external SRAM (pointers, descriptors)
	SDRAM               // external SDRAM (packet data, spilled state)
	numUnits
)

// String implements fmt.Stringer.
func (u Unit) String() string {
	switch u {
	case Scratch:
		return "scratch"
	case SRAM:
		return "sram"
	case SDRAM:
		return "sdram"
	default:
		return fmt.Sprintf("unit(%d)", int(u))
	}
}

// unitTiming holds the blocking latency and pipeline occupancy of a unit,
// in microengine cycles. Latencies follow the IXP1200 documentation ranges;
// occupancy is the time the unit cannot accept another access.
type unitTiming struct {
	latency   int
	occupancy int
}

// Occupancy covers the command phase on the shared command bus plus the
// data burst on the unit's pins; it bounds each unit's aggregate access
// rate and therefore the six-engine contention (it does not affect a single
// blocking engine, whose cost is the latency).
var timings = [numUnits]unitTiming{
	Scratch: {latency: 12, occupancy: 3},
	SRAM:    {latency: 40, occupancy: 5},
	SDRAM:   {latency: 45, occupancy: 10},
}

// Profile is the per-packet cost profile of the queue-management loop.
type Profile struct {
	Name     string
	Queues   int // queue count this tier covers (upper bound)
	Compute  int // instruction cycles per packet
	Accesses [numUnits]int
}

// SingleEngineCycles returns the blocking per-packet cycle count of one
// uncontended microengine: compute plus every access at full latency.
func (p Profile) SingleEngineCycles() int {
	total := p.Compute
	for u, n := range p.Accesses {
		total += n * timings[u].latency
	}
	return total
}

// SingleEngineKpps converts the uncontended cycle count to a packet rate.
func (p Profile) SingleEngineKpps() float64 {
	return ClockMHz * 1e3 / float64(p.SingleEngineCycles())
}

// Tier profiles. Compute covers parsing, flow lookup and branch overhead;
// the access counts follow the queue-state placement of each tier and are
// calibrated to Table 2's single-engine column (see package comment).
var (
	// Tier16: queue table in Scratch — 7 accesses cover the descriptor
	// read/update, the free-list pop/push and the occupancy counters.
	Tier16 = Profile{Name: "16 queues", Queues: 16, Compute: 125,
		Accesses: [numUnits]int{Scratch: 7}}
	// Tier128: descriptors spill to SRAM (9 accesses: descriptor read and
	// writeback, head/tail pointers, free list), Scratch keeps only the
	// hot occupancy bitmap.
	Tier128 = Profile{Name: "128 queues", Queues: 128, Compute: 125,
		Accesses: [numUnits]int{Scratch: 2, SRAM: 9}}
	// Tier1024: the working set no longer fits SRAM; descriptors,
	// free-list pages and the packet payload staging all round-trip
	// through SDRAM (64 accesses), which dominates the packet budget.
	Tier1024 = Profile{Name: "1024 queues", Queues: 1024, Compute: 125,
		Accesses: [numUnits]int{Scratch: 2, SRAM: 9, SDRAM: 64}}
)

// ProfileForQueues returns the tier covering the given queue count.
func ProfileForQueues(queues int) (Profile, error) {
	switch {
	case queues <= 0:
		return Profile{}, fmt.Errorf("ixp: queue count must be positive, got %d", queues)
	case queues <= 16:
		return Tier16, nil
	case queues <= 128:
		return Tier128, nil
	case queues <= 1024:
		return Tier1024, nil
	default:
		return Profile{}, fmt.Errorf("ixp: no measured tier beyond 1024 queues (got %d)", queues)
	}
}

// Config parameterizes a contention simulation.
type Config struct {
	Profile Profile
	Engines int // number of microengines (1..6)
	// Packets is the number of packets each engine completes
	// (0 means 2000).
	Packets int
	// Seed drives the per-step compute jitter (0 means 1). Real firmware
	// loops have data-dependent branches, so engines drift out of phase
	// instead of running in deterministic lock-step; without jitter six
	// identical staggered engines would never collide on a shared unit.
	Seed uint64
}

// Result reports a simulation run.
type Result struct {
	Engines        int
	PacketsServed  uint64
	ElapsedCycles  uint64
	Kpps           float64
	UnitBusy       [numUnits]float64 // utilization of each memory unit
	MeanWaitCycles float64           // mean queueing wait per access
}

// MbpsAt64B converts the packet rate to line throughput for worst-case
// 64-byte packets (the paper's "150 Mbps" argument).
func (r Result) MbpsAt64B() float64 { return r.Kpps * 1e3 * PacketBits / 1e6 }

// server is a single-ported memory unit with a FIFO of blocked engines.
type server struct {
	timing   unitTiming
	freeAt   sim.Time
	busy     uint64
	accesses uint64
	waited   uint64
}

// request serves one access starting no earlier than now, returning when the
// data is available to the engine.
func (s *server) request(now sim.Time) (dataAt sim.Time) {
	start := now
	if s.freeAt > start {
		s.waited += uint64(s.freeAt - start)
		start = s.freeAt
	}
	s.freeAt = start + sim.Time(s.timing.occupancy)
	s.busy += uint64(s.timing.occupancy)
	s.accesses++
	return start + sim.Time(s.timing.latency)
}

// Run simulates the configured engines until each has completed its packet
// quota and reports the aggregate rate.
func Run(cfg Config) (Result, error) {
	if cfg.Engines < 1 || cfg.Engines > NumMicroengines {
		return Result{}, fmt.Errorf("ixp: engines must be 1..%d, got %d", NumMicroengines, cfg.Engines)
	}
	if cfg.Profile.SingleEngineCycles() <= 0 {
		return Result{}, fmt.Errorf("ixp: empty profile")
	}
	packets := cfg.Packets
	if packets == 0 {
		packets = 2000
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := xrand.New(seed)

	var e sim.Engine
	units := [numUnits]*server{}
	for u := range units {
		units[u] = &server{timing: timings[u]}
	}

	// Flatten the access sequence of one packet: compute is split around
	// the accesses (half before, half interleaved) — the exact placement
	// does not change steady-state throughput for blocking accesses, only
	// the phase; we interleave uniformly for realism.
	type step struct {
		unit    Unit
		compute int // compute cycles preceding this access
	}
	var steps []step
	totalAccesses := 0
	for _, n := range cfg.Profile.Accesses {
		totalAccesses += n
	}
	if totalAccesses == 0 {
		steps = append(steps, step{unit: numUnits, compute: cfg.Profile.Compute})
	} else {
		per := cfg.Profile.Compute / totalAccesses
		rem := cfg.Profile.Compute - per*totalAccesses
		for u := Unit(0); u < numUnits; u++ {
			for i := 0; i < cfg.Profile.Accesses[u]; i++ {
				c := per
				if rem > 0 {
					c++
					rem--
				}
				steps = append(steps, step{unit: u, compute: c})
			}
		}
	}

	var (
		done      int
		servedAll uint64
		finish    sim.Time
	)
	perEngine := make([]int, cfg.Engines)

	var runStep func(engine, idx int) func(sim.Time)
	runStep = func(engine, idx int) func(sim.Time) {
		return func(now sim.Time) {
			if idx == len(steps) {
				// Packet complete.
				servedAll++
				perEngine[engine]++
				if perEngine[engine] == packets {
					done++
					if now > finish {
						finish = now
					}
					return
				}
				e.At(now, runStep(engine, 0))
				return
			}
			st := steps[idx]
			// ±1 cycle of branch jitter keeps engines from phase-locking.
			compute := st.compute + rng.Intn(3) - 1
			if compute < 0 {
				compute = 0
			}
			after := now + sim.Time(compute)
			if st.unit == numUnits { // pure compute step
				e.At(after, runStep(engine, idx+1))
				return
			}
			// The access is issued after the step's compute; the engine
			// resumes when the data returns.
			e.At(after, func(t sim.Time) {
				dataAt := units[st.unit].request(t)
				e.At(dataAt, runStep(engine, idx+1))
			})
		}
	}

	// Stagger engine start-up by a few cycles each, as the real firmware
	// does, to avoid artificial lock-step.
	for eng := 0; eng < cfg.Engines; eng++ {
		e.At(sim.Time(eng*17), runStep(eng, 0))
	}
	for done < cfg.Engines && e.Step() {
	}

	elapsed := uint64(finish)
	res := Result{
		Engines:       cfg.Engines,
		PacketsServed: servedAll,
		ElapsedCycles: elapsed,
	}
	if elapsed > 0 {
		seconds := float64(elapsed) / (ClockMHz * 1e6)
		res.Kpps = float64(servedAll) / seconds / 1e3
	}
	var totalWait, totalAcc uint64
	for u, s := range units {
		if elapsed > 0 {
			res.UnitBusy[u] = float64(s.busy) / float64(elapsed)
		}
		totalWait += s.waited
		totalAcc += s.accesses
	}
	if totalAcc > 0 {
		res.MeanWaitCycles = float64(totalWait) / float64(totalAcc)
	}
	return res, nil
}

// Table2Row is one cell pair of Table 2.
type Table2Row struct {
	Queues     int
	OneEngine  Result
	SixEngines Result
}

// RunTable2 reproduces Table 2: 16/128/1024 queues on 1 and 6 microengines.
func RunTable2() ([]Table2Row, error) {
	rows := make([]Table2Row, 0, 3)
	for _, q := range []int{16, 128, 1024} {
		p, err := ProfileForQueues(q)
		if err != nil {
			return nil, err
		}
		one, err := Run(Config{Profile: p, Engines: 1})
		if err != nil {
			return nil, err
		}
		six, err := Run(Config{Profile: p, Engines: 6})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Queues: q, OneEngine: one, SixEngines: six})
	}
	return rows, nil
}
