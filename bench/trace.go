package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// spanKind names a span. Spans named after a layer wrap nothing but calls
// into that layer's exported API; "bench." spans are the harness's own
// work, kept so that it is not read as the engine's.
type spanKind uint8

const (
	spPhase   spanKind = iota // one phase of one trial; parent of the rest
	spGen                     // traffic: draw and stage a window of packets
	spEnqueue                 // engine: the facade ingest calls of one window
	spDequeue                 // engine: one batch-delivery call
	spRelease                 // engine: the release calls of one batch
	spVerify                  // bench: verify one delivered batch
	spSink                    // engine->bench: inside one sink callback
	spWait                    // bench: backpressure or idle sleep
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"bench.phase", "traffic.gen", "engine.enqueue", "engine.dequeue",
	"engine.release", "bench.verify", "engine.sink", "bench.wait",
}

// span is one recorded interval: n is the number of packets it covers,
// batch the producer window or consumer batch it belongs to, parent the
// index of the enclosing phase span in the same recorder (-1 for none).
type span struct {
	kind   spanKind
	trial  uint8
	n      uint16
	parent int32
	batch  uint32
	start  int64 // ns since the recorder's base
	end    int64
}

// recorder keeps one goroutine's spans in memory. A nil *recorder records
// nothing, which is how the untraced run shares the traced run's code.
// Totals count every span; the span list itself stops growing at its
// preallocated capacity so that tracing never allocates mid-run.
type recorder struct {
	role    string
	base    time.Time
	spans   []span
	dropped int
	trial   uint8
	parent  int32
	batch   uint32

	ns   [nSpanKinds]int64
	pkts [nSpanKinds]int64
}

func newRecorder(role string, base time.Time, capacity int) *recorder {
	return &recorder{role: role, base: base, spans: make([]span, 0, capacity), parent: -1}
}

// begin returns the span start time, or 0 when not recording.
func (r *recorder) begin() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

// end closes a span begun at start covering n packets.
func (r *recorder) end(kind spanKind, start int64, n int) {
	if r == nil {
		return
	}
	r.add(kind, start, int64(time.Since(r.base)), n)
}

func (r *recorder) add(kind spanKind, start, end int64, n int) {
	r.ns[kind] += end - start
	r.pkts[kind] += int64(n)
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		kind: kind, trial: r.trial, n: uint16(min(n, 65535)),
		parent: r.parent, batch: r.batch, start: start, end: end,
	})
}

// Phases of a trial, kept in a phase span's packets column.
const (
	phaseSaturate = iota + 1
	phasePaced
	phaseRoundTrip
)

// openPhase starts a phase span and makes it the parent of what follows.
// It returns the phase span's index for closePhase, -1 when not recorded.
func (r *recorder) openPhase(phase int) int {
	if r == nil {
		return -1
	}
	r.parent = -1
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{kind: spPhase, trial: r.trial, n: uint16(phase), parent: -1, start: r.begin()})
	r.parent = int32(len(r.spans) - 1)
	return int(r.parent)
}

func (r *recorder) closePhase(idx int) {
	if r == nil {
		return
	}
	if idx >= 0 {
		r.spans[idx].end = r.begin()
	}
	r.parent = -1
}

// perPkt is the mean ns per packet over every span of kind.
func (r *recorder) perPkt(kind spanKind) float64 {
	if r == nil || r.pkts[kind] == 0 {
		return 0
	}
	return float64(r.ns[kind]) / float64(r.pkts[kind])
}

// resetTotals clears the per-kind totals (between trials) but keeps spans.
func (r *recorder) resetTotals() {
	if r == nil {
		return
	}
	r.ns, r.pkts = [nSpanKinds]int64{}, [nSpanKinds]int64{}
}

// writeTrace writes every recorder's spans as compact JSON rows:
// [kind, trial, batch, packets, parent, start_ns, end_ns].
func writeTrace(path, workload string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"kind\",\"trial\",\"batch\",\"packets\",\"parent\",\"start_ns\",\"end_ns\"],\"kinds\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"recorders\":[")
	var num []byte
	for i, r := range recs {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "{\"role\":%q,\"dropped\":%d,\"spans\":[", r.role, r.dropped)
		for i, s := range r.spans {
			num = num[:0]
			if i > 0 {
				num = append(num, ',')
			}
			num = append(num, '[')
			for j, v := range [7]int64{int64(s.kind), int64(s.trial), int64(s.batch), int64(s.n), int64(s.parent), s.start, s.end} {
				if j > 0 {
					num = append(num, ',')
				}
				num = strconv.AppendInt(num, v, 10)
			}
			num = append(num, ']')
			w.Write(num)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
