// Package allocbad seeds //godiva:noalloc violations for the alloccheck
// analyzer: direct allocations on hot paths, a transitive allocation
// through a module call, generic functions annotated or called through an
// instantiation, and the conforming cold-path exemption (error branches may
// allocate their diagnostics).
package allocbad

import (
	"encoding/binary"
	"fmt"
)

// hotFormat allocates its result on the hot path.
//
//godiva:noalloc
func hotFormat(n int) string {
	return fmt.Sprintf("%d", n) // want alloccheck `call to fmt.Sprintf may allocate`
}

//godiva:noalloc
func hotMake(n int) []byte {
	buf := make([]byte, n) // want alloccheck `make allocates`
	return buf
}

// slowPath allocates but carries no annotation: silent here ...
func slowPath() []int {
	return make([]int, 8)
}

// ... and flagged at the annotated caller that reaches it.
//
//godiva:noalloc
func callsSlow() []int {
	return slowPath() // want alloccheck `call to allocbad.slowPath may allocate`
}

// hotGeneric allocates in a generic body, checked once for every
// instantiation.
//
//godiva:noalloc
func hotGeneric[T int32 | float64](n int) []T {
	return make([]T, n) // want alloccheck `make allocates`
}

// makeLike allocates but carries no annotation ...
func makeLike[T int32 | float64](like []T, n int) []T {
	return make([]T, n+len(like))
}

// ... and is flagged at annotated callers through an explicit or an
// inferred instantiation (the call graph keys both by the generic origin).
//
//godiva:noalloc
func callsGeneric(n int, like []int32) ([]float64, []int32) {
	a := makeLike[float64](nil, n) // want alloccheck `call to allocbad.makeLike may allocate`
	b := makeLike(like, n)         // want alloccheck `call to allocbad.makeLike may allocate`
	return a, b
}

//godiva:noalloc
func hotClosure() func() int {
	n := 0
	return func() int { // want alloccheck `function literal allocates`
		n++
		return n
	}
}

// appendKey is the conforming shape: appends into a caller-provided
// buffer, with diagnostic construction confined to error branches.
//
//godiva:noalloc
func appendKey(dst []byte, parts []uint32) ([]byte, error) {
	if len(parts) == 0 {
		return dst, fmt.Errorf("empty key: %d parts", len(parts))
	}
	for _, p := range parts {
		dst = binary.LittleEndian.AppendUint32(dst, p)
	}
	return dst, nil
}
