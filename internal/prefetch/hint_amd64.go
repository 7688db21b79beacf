package prefetch

import "unsafe"

// Hint prefetches the cache line holding each address in lines into every
// cache level (PREFETCHT0).
//
//go:noescape
func Hint(lines []unsafe.Pointer)
