package core

import (
	"testing"
	"unsafe"
)

// A unit's commit makes one Buffer per field of every record, so the
// struct's size is paid thousands of times a unit: one data pointer, the
// byte size, the type and the borrowed flag, not a slice header per type.
func TestBufferIsAtMost32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Buffer{}); n > 32 {
		t.Fatalf("Buffer is %d bytes, want at most 32", n)
	}
}
