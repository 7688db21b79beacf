//go:build !amd64

package prefetch

import "unsafe"

// Hint does nothing on this architecture.
func Hint(lines []unsafe.Pointer) {}
