// Package arena provides Chunked, an index-addressed table that grows in
// fixed-size chunks. Growth appends a new chunk and never copies or
// re-zeroes the elements already carved, so a pointer returned by At
// stays valid for the arena's lifetime and a table far larger than the
// cache grows at the cost of its new chunk alone. The per-prefix slot
// table of the conflict kernel and the streaming shards' route-node
// arena are built on it.
package arena

import "slices"

const (
	chunkBits = 10
	// ChunkSize is the number of elements per chunk.
	ChunkSize = 1 << chunkBits
	chunkMask = ChunkSize - 1
)

// Chunked is a growable table of T addressed by int32 index. The zero
// value is empty and ready to use. It keeps no free list: callers that
// recycle elements keep their own.
type Chunked[T any] struct {
	chunks [][]T
	n      int32
}

// At returns a pointer to element i, which must be below Len.
func (a *Chunked[T]) At(i int32) *T { return &a.chunks[i>>chunkBits][i&chunkMask] }

// Len returns the number of elements carved so far.
func (a *Chunked[T]) Len() int { return int(a.n) }

// Alloc carves the next element and returns its index. The element is
// zero unless the caller has written it before.
func (a *Chunked[T]) Alloc() int32 {
	if int(a.n)>>chunkBits == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, ChunkSize))
	}
	i := a.n
	a.n++
	return i
}

// Grow reserves the chunk directory for n more elements, so carving them
// never reallocates it. The chunks themselves are still allocated as
// Alloc reaches them.
func (a *Chunked[T]) Grow(n int) {
	if more := (int(a.n)+n+chunkMask)>>chunkBits - len(a.chunks); more > 0 {
		a.chunks = slices.Grow(a.chunks, more)
	}
}
