package segstore

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestCacheLayout pins the owner-hot words and the padding between them and
// the cross-thread count mirror. Every AllocN and FreeN reads the magazines,
// the bins' total, the lent delta and the bin mask, so those four share one
// 64-byte line ahead of the bins array (a prototype with the total after
// the array read −4…−12% on one-segment workloads, which never use a bin,
// in noisy pairs).
// Store.Free sums every cache's mirror on each policy decision, and without
// the pad those reads would bounce the owner's lines around the machine.
// Distances, not absolute alignment, are asserted — heap base alignment is
// the allocator's call.
func TestCacheLayout(t *testing.T) {
	var c Cache
	offMag := unsafe.Offsetof(c.mag)
	offBins := unsafe.Offsetof(c.bins)
	offCount := unsafe.Offsetof(c.count)

	for name, end := range map[string]uintptr{
		"mag":    offMag + unsafe.Sizeof(c.mag),
		"binned": unsafe.Offsetof(c.binned) + unsafe.Sizeof(c.binned),
		"lent":   unsafe.Offsetof(c.lent) + unsafe.Sizeof(c.lent),
		"mask":   unsafe.Offsetof(c.mask) + unsafe.Sizeof(c.mask),
	} {
		if end-offMag > 64 || end > offBins {
			t.Errorf("layout: %s ends %d bytes past mag (bins at %d), want within one 64-byte line ahead of bins", name, end-offMag, offBins-offMag)
		}
	}
	if cachePad < 128 {
		t.Fatalf("cachePad = %d, want >= 128 (adjacent-line prefetch pairs)", cachePad)
	}
	if d := offCount - (offBins + unsafe.Sizeof(c.bins)); d < cachePad {
		t.Errorf("layout: bins/count only %d bytes apart, want >= %d", d, cachePad)
	}
	// Tail pad: the mirror must not end the struct, or the next object in
	// the same span shares its line.
	if d := unsafe.Sizeof(c) - offCount; d < cachePad {
		t.Errorf("layout: count only %d bytes from struct end, want >= %d", d, cachePad)
	}
}

// TestStoreLayout pins where the depot's words sit. Every push and pop
// moves the segment count and CASes a stack head, and on one-segment
// traffic that head is the general stack's, so the count, the lent count,
// the grain mask and depot[0] share one 64-byte span: the general path
// touches one contended line per depot trip, as it did before the grain
// stacks (whose heads, depot[2…MaxGrain], follow eight to a line). The
// cluster stays a line pair away from the read-only view header. (Heads on
// lines of their own measured no different on ports16-shaped-push.)
func TestStoreLayout(t *testing.T) {
	var st Store
	offCount := unsafe.Offsetof(st.depotFree)
	offDepot := unsafe.Offsetof(st.depot)
	for name, end := range map[string]uintptr{
		"lentSegs": unsafe.Offsetof(st.lentSegs) + 8,
		"grains":   unsafe.Offsetof(st.grains) + 8,
		"depot[0]": offDepot + unsafe.Sizeof(st.depot[0]),
	} {
		if end < offCount || end-offCount > 64 {
			t.Errorf("layout: %s ends %d bytes from depotFree, want within its 64-byte span", name, int(end)-int(offCount))
		}
	}
	if end := unsafe.Offsetof(st.view) + unsafe.Sizeof(st.view); offCount < end+cachePad {
		t.Errorf("layout: depot count at %d, view header ends at %d, want >= %d apart", offCount, end, cachePad)
	}
	t.Logf("Store: depotFree at %d, depot[0] at %d, depot[%d] at %d, size %d",
		offCount, offDepot, MaxGrain, offDepot+uintptr(MaxGrain)*unsafe.Sizeof(st.depot[0]), unsafe.Sizeof(st))
}

// TestViewLayout pins the per-segment metadata: a link (Next, 4 B), a word
// (Seg, 2 B) and a view refcount (Refs, 4 B), with the payload slab (Data)
// apart. Like the paper's pointer memory, a segment carries no lifecycle
// state; CheckInvariants derives it. Every array here is a line the
// datapath may touch per segment, and the cores of an enqueue and its
// dequeue trade, so a new one is a sizing decision, not a convenience.
func TestViewLayout(t *testing.T) {
	want := map[string]uintptr{"Next": 4, "Seg": 2, "Refs": 4}
	vt := reflect.TypeOf(View{})
	got := map[string]uintptr{}
	for i := 0; i < vt.NumField(); i++ {
		f := vt.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Fatalf("View.%s is a %s, want a per-segment slice", f.Name, f.Type)
		}
		if f.Name != "Data" {
			got[f.Name] = f.Type.Elem().Size()
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("View's per-segment arrays are %v (bytes per segment), want %v", got, want)
	}
}
