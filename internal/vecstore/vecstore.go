// Package vecstore is the bottom storage layer for column/value
// embeddings: one flat, contiguous float32 block (row-major, fixed
// dimension) with precomputed L2 norms, carved into named segments
// ("model" tokens, "starmie" columns, ...). The block has a stable
// on-disk layout and is loaded either by a portable heap read or
// zero-copy via mmap, so snapshot reload cost for vectors is
// independent of how many there are and replica processes share pages.
// The store only holds rows; searching them is its owners' business.
//
// The package also carries the deterministic k-means coarse quantizer
// (Train, see centroids.go) whose per-cluster dot-product bounds
// (MaxDots) let PEXESO's fuzzy join discard whole clusters under its
// threshold. The quantizer is not attached to a store or persisted.
package vecstore

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// hostLittleEndian reports whether float32 values in memory already
// have the on-disk (little-endian) byte layout, which is what makes
// the zero-copy mmap view legal.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// segment is a contiguous run of rows owned by one named index.
type segment struct {
	name string
	off  int // first row
	n    int // row count
}

// Store is an immutable vector block plus per-row norms. Row data
// either lives on the Go heap or aliases an mmap'd region of the
// snapshot file.
type Store struct {
	dim     int
	data    []float32 // count*dim, row-major
	norms   []float64 // count, norms[i] == ||row i||
	segs    []segment
	segIx   map[string]int
	blobCRC uint32
	mapping []byte // whole mmap region when mapped, else nil
}

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Count returns the total number of rows across all segments.
func (s *Store) Count() int {
	if s.dim == 0 {
		return 0
	}
	return len(s.data) / s.dim
}

// Mapped reports whether row data aliases an mmap'd file region.
func (s *Store) Mapped() bool { return s.mapping != nil }

// BlobCRC returns the CRC32-IEEE over the on-disk blob bytes,
// computed at build time and carried in the snapshot directory.
func (s *Store) BlobCRC() uint32 { return s.blobCRC }

// DataBytes returns the on-disk size of the raw vector data.
func (s *Store) DataBytes() int64 { return int64(len(s.data)) * 4 }

// NormBytes returns the on-disk size of the precomputed norms.
func (s *Store) NormBytes() int64 { return int64(len(s.norms)) * 8 }

// Segments returns the segment names in row order.
func (s *Store) Segments() []string {
	out := make([]string, len(s.segs))
	for i, sg := range s.segs {
		out[i] = sg.name
	}
	return out
}

// View returns the named segment's view, or ok=false if absent.
func (s *Store) View(name string) (View, bool) {
	ix, ok := s.segIx[name]
	if !ok {
		return View{}, false
	}
	return View{s: s, seg: s.segs[ix]}, true
}

// Close releases the mmap mapping, if any. Only tests should call
// this: production code keeps mappings alive for the life of the
// process because query paths may hold aliased row slices.
func (s *Store) Close() error {
	if s.mapping == nil {
		return nil
	}
	m := s.mapping
	s.mapping = nil
	s.data = nil
	s.norms = nil
	return munmapRegion(m)
}

// View is a read-only window over one segment. The zero View is
// empty and safe to query.
type View struct {
	s   *Store
	seg segment
}

// Len returns the number of rows in the segment.
func (v View) Len() int { return v.seg.n }

// Dim returns the vector dimensionality.
func (v View) Dim() int {
	if v.s == nil {
		return 0
	}
	return v.s.dim
}

// Vec returns row i of the segment. The slice aliases the store
// (possibly an mmap'd page) and is capacity-capped: callers cannot
// append into a neighbouring row.
func (v View) Vec(i int) []float32 {
	off := (v.seg.off + i) * v.s.dim
	return v.s.data[off : off+v.s.dim : off+v.s.dim]
}

// Norm returns the precomputed L2 norm of row i, bit-identical to
// computing it from the row at query time.
func (v View) Norm(i int) float64 { return v.s.norms[v.seg.off+i] }

// dot accumulates in float64 in index order — the exact expression
// embedding.Vector.Dot uses, so stored norms are bit-identical to
// embedding.Vector.Norm.
func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// norm matches embedding.Vector.Norm bit for bit.
func norm(a []float32) float64 { return math.Sqrt(dot(a, a)) }

// --- builder ---

// Builder accumulates rows segment by segment. Segments are laid out
// in first-Append order and must not be interleaved.
type Builder struct {
	dim   int
	data  []float32
	norms []float64
	segs  []segment
	segIx map[string]int
	err   error
}

// NewBuilder returns a builder for dim-dimensional vectors.
func NewBuilder(dim int) *Builder {
	return &Builder{dim: dim, segIx: make(map[string]int)}
}

// Grow reserves room for rows more rows, so a caller that knows its
// row count up front appends without regrowing the block.
func (b *Builder) Grow(rows int) {
	b.data = slices.Grow(b.data, rows*b.dim)
	b.norms = slices.Grow(b.norms, rows)
}

// Append adds one row to the named segment, which must be the
// segment most recently appended to (or new). The vector is copied.
func (b *Builder) Append(seg string, vec []float32) {
	if b.err != nil {
		return
	}
	if len(vec) != b.dim {
		b.err = fmt.Errorf("vecstore: segment %q: vector dim %d, store dim %d", seg, len(vec), b.dim)
		return
	}
	ix, ok := b.segIx[seg]
	if !ok {
		b.segIx[seg] = len(b.segs)
		b.segs = append(b.segs, segment{name: seg, off: len(b.norms)})
		ix = len(b.segs) - 1
	} else if ix != len(b.segs)-1 {
		b.err = fmt.Errorf("vecstore: segment %q appended out of order", seg)
		return
	}
	b.data = append(b.data, vec...)
	b.norms = append(b.norms, norm(vec))
	b.segs[ix].n++
}

// Build seals the builder into an immutable heap-backed Store.
func (b *Builder) Build() (*Store, error) {
	if b.err != nil {
		return nil, b.err
	}
	s := &Store{
		dim:   b.dim,
		data:  b.data,
		norms: b.norms,
		segs:  b.segs,
		segIx: b.segIx,
	}
	s.blobCRC = blobCRC(s.data, s.norms)
	b.data, b.norms, b.segs, b.segIx = nil, nil, nil, nil
	b.err = fmt.Errorf("vecstore: builder already built")
	return s, nil
}
