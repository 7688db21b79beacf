// Package prefetch issues software prefetch hints: each address's cache
// line starts moving towards this core, and the call does not wait for it.
// A hint is never a memory access — it cannot fault and the race detector
// does not see it — so a hint on a stale or unrelated address costs a
// little bandwidth and nothing else.
//
// Go has no user-level prefetch; on amd64 Hint is a short assembly loop of
// PREFETCHT0 instructions, elsewhere it does nothing. A call costs about
// as much as a non-inlined function call, so callers gather a packet's
// lines into one call.
package prefetch
