package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded in every result so two result files can be told
// apart by where they were measured before their numbers are compared.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	CalibNs    float64 `json:"host.calib_ns"`
	ClockNs    float64 `json:"traffic.clock_ns"`
	GitCommit  string  `json:"git_commit"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
		CalibNs:    calibrate(),
		ClockNs:    clockCost(),
		GitCommit:  gitCommit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit is the revision the go tool stamped into the binary, when it
// was built inside a git checkout.
func gitCommit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

var calibSink uint64

// calibrate times a fixed integer loop (an xorshift chain the compiler
// cannot shorten) and returns ns per 1000 iterations, best of 5. It moves
// with the host's clock speed and steal time, not with the engine.
func calibrate() float64 {
	const iters = 2_000_000
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		x := uint64(88172645463325252)
		t := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best.Nanoseconds()) / (iters / 1000)
}

// clockCost is what a clock read adds to an interval timed around a single
// call: the mean gap between two back-to-back reads, best of 5 runs.
func clockCost() float64 {
	const pairs = 100_000
	best := time.Duration(1 << 62)
	base := time.Now()
	for r := 0; r < 5; r++ {
		var acc time.Duration
		for i := 0; i < pairs; i++ {
			t0 := time.Since(base)
			acc += time.Since(base) - t0
		}
		best = min(best, acc)
	}
	return float64(best.Nanoseconds()) / pairs
}

// hostProbe is a fixed piece of work the harness times every few ms while a
// phase is being measured: integer chains with a 64-byte copy every 64
// iterations into a 256 KiB buffer, then dependent loads from an 8 MiB
// table. How long it takes is the host's pace at that moment, see pace.
//
// The two halves answer to different neighbours. The first slows when the
// other hardware thread of the core is busy, the second when the shared
// cache and memory are; the engine does both kinds of work. calibrate's
// dependent xorshift chain sees neither, which is why it is not the probe.
type hostProbe struct {
	buf   []byte
	src   [64]byte
	table []uint32
	pos   uint32
	sink  uint64

	// Since reset: the readings (the first probeReads of them), and the
	// time all of them took together.
	reads []int32
	ns    time.Duration
}

const (
	probeIters = 40_000
	probeHops  = 250
	// probeEvery is the gap between two probes: about 2% of one core.
	probeEvery = 5 * time.Millisecond
	// refProbeNs is the reference pace: about what the probe reads inside a
	// saturate window on the host this benchmark was written on.
	refProbeNs = 100_000.0
	// probeReads is room for the readings of a 20 s window.
	probeReads = 4096
)

func newHostProbe() *hostProbe {
	p := &hostProbe{
		buf: make([]byte, 256<<10), table: make([]uint32, 2<<20),
		reads: make([]int32, 0, probeReads),
	}
	n := uint64(len(p.table))
	for i := range p.table {
		// A full-period LCG step: one cycle through every entry.
		p.table[i] = uint32((uint64(i)*1664525 + 1013904223) % n)
	}
	return p
}

func (p *hostProbe) reset() { p.reads, p.ns = p.reads[:0], 0 }

func (p *hostProbe) run() {
	t := time.Now()
	var a, b, c, d uint64 = 1, 2, 3, 4
	for i := 0; i < probeIters; i++ {
		a += uint64(i) * 3
		b ^= a >> 3
		c += b & 0xff
		d = d*5 + c
		if i&63 == 0 {
			copy(p.buf[(i&0xfff)*64:], p.src[:])
		}
	}
	pos := p.pos
	for i := 0; i < probeHops; i++ {
		pos = p.table[pos]
	}
	p.pos = pos
	p.sink += a + b + c + d
	el := time.Since(t)
	p.ns += el
	if len(p.reads) < cap(p.reads) {
		p.reads = append(p.reads, int32(el))
	}
}

// sample runs the probe ten times in a row: the reading on either side of
// a set-up, which has no loop to probe from.
func (p *hostProbe) sample() {
	for i := 0; i < 10; i++ {
		p.run()
	}
}

// pace is how much slower than the reference the host ran since reset: the
// mean of the fastest nine tenths of the readings over refProbeNs, or 1
// when there are none. The slowest tenth is left out because a reading of
// ten times the usual is the probe's own thread losing its vCPU for a time
// slice, which the engine's threads do not lose with it; a neighbour that
// slows the host for longer than a tenth of the phase still shows. It
// sorts the readings in place.
func (p *hostProbe) pace() float64 {
	slices.Sort(p.reads)
	keep := p.reads[:len(p.reads)-len(p.reads)/10]
	if len(keep) == 0 {
		return 1
	}
	var sum int64
	for _, r := range keep {
		sum += int64(r)
	}
	return float64(sum) / float64(len(keep)) / refProbeNs
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
