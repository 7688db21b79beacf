package queue

import (
	"testing"
	"unsafe"
)

// TestManagerLayout pins the padding around the longest-length mirror, as
// segstore's TestCacheLayout does for the free-count mirror: every LQD
// arrival on every shard reads the word (the engine's victim election),
// and without the pad those reads would bounce the owner's hot manager
// words — queue table headers, counters, heap — around the machine.
// Distances, not absolute alignment, are asserted.
func TestManagerLayout(t *testing.T) {
	var m Manager
	offLongest := unsafe.Offsetof(m.longest)
	// data is the last owner-side field: the queue table, counters, heap and
	// scratch all sit above it, so one distance covers them all.
	ownerEnd := unsafe.Offsetof(m.data) + unsafe.Sizeof(m.data)

	if mirrorPad < 128 {
		t.Fatalf("mirrorPad = %d, want >= 128 (adjacent-line prefetch pairs)", mirrorPad)
	}
	if d := offLongest - ownerEnd; d < mirrorPad {
		t.Errorf("layout: longest mirror only %d bytes past the owner words, want >= %d", d, mirrorPad)
	}
	// Tail pad: the mirror must not end the struct, or the next object in
	// the same span shares its line.
	if d := unsafe.Sizeof(m) - offLongest; d < mirrorPad {
		t.Errorf("layout: longest mirror only %d bytes from struct end, want >= %d", d, mirrorPad)
	}
}
