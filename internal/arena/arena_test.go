package arena

import "testing"

// TestChunkedGrowthKeepsElements: carving across several chunk
// boundaries never moves or clears an element already carved, so
// pointers taken before growth still see their writes.
func TestChunkedGrowthKeepsElements(t *testing.T) {
	var a Chunked[int64]
	a.Grow(ChunkSize + 1)
	const n = 3*ChunkSize + 7
	ptrs := make([]*int64, 0, n)
	for v := int64(0); v < n; v++ {
		i := a.Alloc()
		if int64(i) != v {
			t.Fatalf("Alloc = %d, want %d", i, v)
		}
		p := a.At(i)
		if *p != 0 {
			t.Fatalf("fresh element %d = %d, want 0", i, *p)
		}
		*p = v * 10
		ptrs = append(ptrs, p)
	}
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	for v, p := range ptrs {
		if p != a.At(int32(v)) || *p != int64(v)*10 {
			t.Fatalf("element %d moved or changed: %d", v, *p)
		}
	}
}
