// Package vecstore is the bottom storage layer for column/value
// embeddings: float32 rows of one fixed dimension with precomputed L2
// norms, in named segments ("model" tokens, "starmie" columns, ...).
// On disk the store is one flat block (every segment's rows, then
// every segment's norms) with a stable layout, loaded either by a
// portable heap read or zero-copy via mmap, so snapshot reload cost
// for vectors is independent of how many there are and replica
// processes share pages. In memory each segment owns its rows, so a
// store may share a whole segment with another store (a delta merge
// keeps its base's frozen model rows) without copying them. The store
// only holds rows; searching them is its owners' business.
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

// segment is one named index's rows and their norms. The rows are the
// store's own, or another store's when shared (Builder.Share), and
// either live on the Go heap or alias an mmap'd file region.
type segment struct {
	name   string
	n      int       // row count
	data   []float32 // n*dim, row-major
	norms  []float64 // n, norms[i] == ||row i||
	mapped bool      // data and norms alias an mmap'd file region
}

// Store is an immutable set of vector segments plus per-row norms.
type Store struct {
	dim     int
	count   int // rows across all segments
	segs    []segment
	segIx   map[string]int
	blobCRC uint32
	mapping []byte // the whole file mapping its rows are views of (ViewBlob), else nil
}

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Count returns the total number of rows across all segments.
func (s *Store) Count() int { return s.count }

// Residency reports where the rows live: "heap", "mmap" when every
// segment aliases an mmap'd file region, or "mixed" when some do — a
// merged store whose model segment shares a mapped base's rows while
// its Starmie rows were built on the heap.
func (s *Store) Residency() string {
	mapped := 0
	for _, sg := range s.segs {
		if sg.mapped {
			mapped++
		}
	}
	switch {
	case mapped == 0:
		return "heap"
	case mapped == len(s.segs):
		return "mmap"
	}
	return "mixed"
}

// HeapBytes returns the bytes of rows and norms on the Go heap: those
// of every segment that does not alias an mmap'd file region.
func (s *Store) HeapBytes() int64 {
	var n int64
	for _, sg := range s.segs {
		if !sg.mapped {
			n += int64(len(sg.data))*4 + int64(len(sg.norms))*8
		}
	}
	return n
}

// BlobCRC returns the CRC32-IEEE over the on-disk blob bytes,
// computed at build time and carried in the snapshot directory.
func (s *Store) BlobCRC() uint32 { return s.blobCRC }

// DataBytes returns the on-disk size of the raw vector data.
func (s *Store) DataBytes() int64 { return int64(s.count) * int64(s.dim) * 4 }

// NormBytes returns the on-disk size of the precomputed norms.
func (s *Store) NormBytes() int64 { return int64(s.count) * 8 }

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
	return View{dim: s.dim, seg: s.segs[ix]}, true
}

// Close releases the file mapping the store took, if any: the whole
// snapshot file, sections and blob. Production code calls it only on a
// store whose load failed, which nothing else references; otherwise
// mappings stay alive for the life of the process because query paths
// may hold aliased row slices. Never close a store whose mapping
// another store shares (a merged store built with Builder.Share over
// one of its views): the sharer's rows would alias unmapped pages.
func (s *Store) Close() error {
	if s.mapping == nil {
		return nil
	}
	m := s.mapping
	s.mapping = nil
	for i := range s.segs {
		s.segs[i].data, s.segs[i].norms = nil, nil
	}
	return munmap(m)
}

// View is a read-only window over one segment. The zero View is
// empty and safe to query.
type View struct {
	dim int
	seg segment
}

// Len returns the number of rows in the segment.
func (v View) Len() int { return v.seg.n }

// Dim returns the vector dimensionality.
func (v View) Dim() int { return v.dim }

// Mapped reports whether the segment's rows alias an mmap'd file
// region rather than the Go heap.
func (v View) Mapped() bool { return v.seg.mapped }

// Vec returns row i of the segment. The slice aliases the store
// (possibly an mmap'd page) and is capacity-capped: callers cannot
// append into a neighbouring row.
func (v View) Vec(i int) []float32 {
	off := i * v.dim
	return v.seg.data[off : off+v.dim : off+v.dim]
}

// Norm returns the precomputed L2 norm of row i, bit-identical to
// computing it from the row at query time.
func (v View) Norm(i int) float64 { return v.seg.norms[i] }

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

// f32Bytes and f64Bytes view float slices as their in-memory bytes,
// which on a little-endian host are exactly their on-disk encoding.
func f32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*4)
}

func f64Bytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*8)
}

// f32sOf and f64sOf reinterpret little-endian float bytes in place.
// The caller guarantees the alignment (4 and 8 bytes) and that the
// length is a multiple of the element size.
func f32sOf(b []byte) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

func f64sOf(b []byte) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// --- builder ---

// Builder accumulates rows segment by segment. Segments are laid out
// in the order they are opened (by Grow, Append or Share) and must not
// be interleaved.
type Builder struct {
	dim   int
	segs  []segment
	segIx map[string]int
	// shared names the segments Share added, whose rows are another
	// store's and take no appends.
	shared map[string]bool
	err    error
}

// NewBuilder returns a builder for dim-dimensional vectors.
func NewBuilder(dim int) *Builder {
	return &Builder{dim: dim, segIx: make(map[string]int), shared: make(map[string]bool)}
}

// open returns the index of the named segment, opening it when new; it
// must be the segment most recently opened, and not a shared one.
func (b *Builder) open(seg string) (int, bool) {
	if b.err != nil {
		return 0, false
	}
	ix, ok := b.segIx[seg]
	switch {
	case !ok:
		b.segIx[seg] = len(b.segs)
		b.segs = append(b.segs, segment{name: seg})
		return len(b.segs) - 1, true
	case ix != len(b.segs)-1:
		b.err = fmt.Errorf("vecstore: segment %q appended out of order", seg)
	case b.shared[seg]:
		b.err = fmt.Errorf("vecstore: segment %q is shared, not appended to", seg)
	default:
		return ix, true
	}
	return 0, false
}

// Grow reserves room for rows more rows in the named segment, opening
// it when new, so a caller that knows a segment's row count up front
// appends without regrowing it.
func (b *Builder) Grow(seg string, rows int) {
	if ix, ok := b.open(seg); ok {
		sg := &b.segs[ix]
		sg.data = slices.Grow(sg.data, rows*b.dim)
		sg.norms = slices.Grow(sg.norms, rows)
	}
}

// Append adds one row to the named segment, which must be the
// segment most recently opened (or new). The vector is copied.
func (b *Builder) Append(seg string, vec []float32) {
	if b.err == nil && len(vec) != b.dim {
		b.err = fmt.Errorf("vecstore: segment %q: vector dim %d, store dim %d", seg, len(vec), b.dim)
	}
	if ix, ok := b.open(seg); ok {
		sg := &b.segs[ix]
		sg.data = append(sg.data, vec...)
		sg.norms = append(sg.norms, norm(vec))
		sg.n++
	}
}

// Share adds the view's whole segment as a new segment named seg, with
// no copy: the built store's rows and norms alias the view's store
// (and its mapping, if any), which must therefore outlive it. An empty
// view adds no segment.
func (b *Builder) Share(seg string, v View) {
	if b.err != nil {
		return
	}
	switch _, dup := b.segIx[seg]; {
	case dup:
		b.err = fmt.Errorf("vecstore: shared segment %q already opened", seg)
		return
	case v.Len() > 0 && v.Dim() != b.dim:
		b.err = fmt.Errorf("vecstore: segment %q: shared rows of dim %d, store dim %d", seg, v.Dim(), b.dim)
		return
	}
	sg := v.seg
	sg.name = seg
	b.segIx[seg] = len(b.segs)
	b.segs = append(b.segs, sg)
	b.shared[seg] = true
}

// Build seals the builder into an immutable Store. A segment opened
// with no row is dropped: a stored segment always holds one.
func (b *Builder) Build() (*Store, error) {
	if b.err != nil {
		return nil, b.err
	}
	s := &Store{dim: b.dim, segIx: make(map[string]int, len(b.segs))}
	for _, sg := range b.segs {
		if sg.n == 0 {
			continue
		}
		s.segIx[sg.name] = len(s.segs)
		s.segs = append(s.segs, sg)
		s.count += sg.n
	}
	s.blobCRC = s.crc(hostLittleEndian)
	b.segs, b.segIx, b.shared = nil, nil, nil
	b.err = fmt.Errorf("vecstore: builder already built")
	return s, nil
}
