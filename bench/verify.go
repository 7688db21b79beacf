package main

import (
	"fmt"

	"npqm"
)

// failKind names what a verifier check found wrong. Every count is one
// failed operation in the result's ops_failed.
type failKind int

const (
	failHeader       failKind = iota // magic does not match the header fields
	failFlow                         // delivered on another flow than it was offered on
	failLength                       // delivered length differs from the offered length
	failOrder                        // sequence number at or below one already delivered
	failGap                          // sequence numbers skipped where nothing may be lost
	failPayload                      // payload of a unique packet differs from its pattern
	failInvariant                    // CheckInvariants reported an error after the drain
	failLeak                         // segments still lent after every view was released
	failPool                         // free pool not restored after the drain
	failConservation                 // offered != delivered + pushed-out + refused + resident
	failDigest                       // two trials of one seed delivered different sequences
	nFailKinds
)

var failNames = [nFailKinds]string{
	"header", "flow", "length", "order", "gap", "payload",
	"invariant", "leak", "pool", "conservation", "digest",
}

// trialChecks is the number of whole-trial checks finish runs; each is one
// attempted operation on top of the offered packets.
const trialChecks = 4

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// verifier checks every delivered packet against what the producer
// offered: header intact, right flow, right length, per-flow sequence
// strictly increasing (with no gaps unless push-out is configured), and the
// full payload pattern on unique packets. It allocates nothing per packet.
//
// A verifier belongs to one delivering goroutine. fork gives another
// goroutine its own counters over the same per-flow sequence table, which
// is safe when each flow is always delivered by the same goroutine (a
// port's flows all reach that port's sink).
type verifier struct {
	next      []uint32 // per flow: the lowest sequence number not yet delivered
	allowGaps bool
	digestOn  bool

	delivered uint64
	bytes     uint64
	gaps      uint64 // sequence numbers skipped (pushed-out or refused packets)
	digest    uint64
	fails     [nFailKinds]uint64

	// View walk state: Range takes a func, and a closure built per packet
	// would allocate, so the walk is a method value bound once.
	walkFn  func(seg []byte) bool
	wOff    int
	wHdr    header
	wHdrOK  bool
	wKey    byte
	wUnique bool
	wBad    bool
}

func newVerifier(flows int, allowGaps, digestOn bool) *verifier {
	v := &verifier{next: make([]uint32, flows), allowGaps: allowGaps, digestOn: digestOn, digest: fnvOffset}
	v.walkFn = v.walk
	return v
}

func (v *verifier) fork() *verifier {
	f := &verifier{next: v.next, allowGaps: v.allowGaps, digestOn: v.digestOn, digest: fnvOffset}
	f.walkFn = f.walk
	return f
}

// merge folds a fork's counters into v. Digests do not merge: a digest is
// only defined for single-goroutine delivery.
func (v *verifier) merge(f *verifier) {
	v.delivered += f.delivered
	v.bytes += f.bytes
	v.gaps += f.gaps
	for k := range v.fails {
		v.fails[k] += f.fails[k]
	}
}

func (v *verifier) failed() uint64 {
	var n uint64
	for _, c := range v.fails {
		n += c
	}
	return n
}

// copyPacket checks a packet delivered as a reassembled buffer and returns
// its stamp (0 when unstamped or unreadable).
func (v *verifier) copyPacket(flow uint32, data []byte, bytes int) uint32 {
	if len(data) < hdrBytes || len(data) != bytes {
		v.count(failLength, bytes)
		return 0
	}
	h, ok := parseHeader(data)
	if !v.checkHeader(h, ok, flow, bytes) {
		return 0
	}
	if isUnique(h.flow, h.seq) && !payloadMatches(data, 0, uniqueKey(h.flow, h.seq)) {
		v.fails[failPayload]++
	}
	return h.stamp
}

// viewPacket checks a packet delivered as a zero-copy view, reading the
// header from the first segment and walking the rest only on unique
// packets. It does not release the view.
func (v *verifier) viewPacket(flow uint32, bytes int, view npqm.PacketView) uint32 {
	if view.Len() != bytes {
		v.count(failLength, bytes)
		return 0
	}
	v.wOff, v.wHdrOK, v.wBad, v.wUnique = 0, false, false, false
	view.Range(v.walkFn)
	if v.wOff < hdrBytes {
		v.count(failLength, bytes)
		return 0
	}
	if !v.checkHeader(v.wHdr, v.wHdrOK, flow, bytes) {
		return 0
	}
	if v.wUnique && (v.wBad || v.wOff != bytes) {
		v.fails[failPayload]++
	}
	return v.wHdr.stamp
}

func (v *verifier) walk(seg []byte) bool {
	if v.wOff == 0 {
		if len(seg) < hdrBytes {
			return false
		}
		v.wHdr, v.wHdrOK = parseHeader(seg)
		v.wUnique = v.wHdrOK && isUnique(v.wHdr.flow, v.wHdr.seq)
		v.wKey = uniqueKey(v.wHdr.flow, v.wHdr.seq)
	}
	if v.wUnique && !payloadMatches(seg, v.wOff, v.wKey) {
		v.wBad = true
	}
	v.wOff += len(seg)
	return v.wUnique
}

// count records a failed delivery that still occupied the consumer.
func (v *verifier) count(k failKind, bytes int) {
	v.fails[k]++
	v.delivered++
	v.bytes += uint64(bytes)
}

// checkHeader runs the per-packet header, flow, length and order checks and
// accounts the delivery. It reports whether the header can be trusted for
// the payload check.
func (v *verifier) checkHeader(h header, ok bool, flow uint32, bytes int) bool {
	v.delivered++
	v.bytes += uint64(bytes)
	switch {
	case !ok:
		v.fails[failHeader]++
		return false
	case h.flow != flow || int(h.flow) >= len(v.next):
		v.fails[failFlow]++
		return false
	case h.size != bytes:
		v.fails[failLength]++
		return false
	}
	want := v.next[flow]
	switch {
	case h.seq < want:
		v.fails[failOrder]++
		return false
	case h.seq > want:
		v.gaps += uint64(h.seq - want)
		if !v.allowGaps {
			v.fails[failGap]++
		}
	}
	v.next[flow] = h.seq + 1
	if v.digestOn {
		d := v.digest
		for _, w := range [3]uint32{h.flow, h.seq, uint32(bytes)} {
			for s := 0; s < 32; s += 8 {
				d = (d ^ uint64(byte(w>>s))) * fnvPrime
			}
		}
		v.digest = d
	}
	return true
}

// endState is what the harness reads off the engine after a trial's drain.
// It is plain data so the whole-trial checks can be tested without an
// engine.
type endState struct {
	invariants error
	lent       int // LentSegments()
	free, pool int // free segments now, and the configured pool
	offered    uint64
	refused    uint64 // ingest calls that returned an error (plus async refusals from Stats)
	pushedOut  uint64
	resident   uint64 // packets still queued after the drain
}

// finish runs the whole-trial checks. Packets delivered after a producer
// stopped are part of v.delivered already: the caller drains through the
// same verifier.
func (v *verifier) finish(s endState) {
	if s.invariants != nil {
		v.fails[failInvariant]++
	}
	if s.lent != 0 {
		v.fails[failLeak]++
	}
	if s.free != s.pool {
		v.fails[failPool]++
	}
	if s.offered != v.delivered+s.pushedOut+s.refused+s.resident || v.gaps > s.pushedOut+s.refused {
		v.fails[failConservation]++
	}
}

// describe lists the non-zero failure counts, for the report.
func (v *verifier) describe() string {
	out := ""
	for k, c := range v.fails {
		if c > 0 {
			out += fmt.Sprintf(" %s=%d", failNames[k], c)
		}
	}
	return out
}
