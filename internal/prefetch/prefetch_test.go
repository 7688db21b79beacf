package prefetch

import (
	"testing"
	"unsafe"
)

// TestHint: a hint on ordinary, nil and out-of-the-way addresses returns
// without faulting, an empty list is fine, and gathering the addresses in a
// slice literal allocates nothing (Hint does not let them escape).
func TestHint(t *testing.T) {
	buf := make([]byte, 4096)
	var x int64
	Hint(nil)
	Hint([]unsafe.Pointer{nil, unsafe.Pointer(&x), unsafe.Pointer(&buf[len(buf)-1])})
	if n := testing.AllocsPerRun(100, func() {
		Hint([]unsafe.Pointer{unsafe.Pointer(&x), unsafe.Pointer(&buf[64]), unsafe.Pointer(&buf[128])})
	}); n != 0 {
		t.Fatalf("Hint allocates %v per call, want 0", n)
	}
}
