// Package vecstore is the bottom storage layer for column/value
// embeddings: one flat, contiguous float32 block (row-major, fixed
// dimension) with precomputed L2 norms, carved into named segments
// ("model" tokens, "starmie" columns, ...). The block has a stable
// on-disk layout and is loaded either by a portable heap read or
// zero-copy via mmap, so snapshot reload cost for vectors is
// independent of how many there are and replica processes share pages.
//
// An optional coarse quantizer (deterministic k-means, see
// centroids.go) can be attached per segment; View.TopK then visits
// clusters in ascending centroid distance and prunes whole clusters
// with triangle-inequality dot-product bounds before exact rescoring.
// With nprobe <= 0 every cluster is visited or provably excluded, and
// results are bit-identical to an exhaustive scan.
package vecstore

import (
	"fmt"
	"math"
	"slices"
	"sort"
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

// Store is an immutable vector block plus per-row norms and optional
// per-segment centroid tables. Row data either lives on the Go heap
// or aliases an mmap'd region of the snapshot file.
type Store struct {
	dim     int
	data    []float32 // count*dim, row-major
	norms   []float64 // count, norms[i] == ||row i||
	segs    []segment
	segIx   map[string]int
	cents   map[string]*Centroids
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

// CentroidBytes returns the approximate in-memory footprint of all
// attached centroid tables (centroids, bounds, assignments, members).
func (s *Store) CentroidBytes() int64 {
	var b int64
	for _, c := range s.cents {
		b += c.footprint()
	}
	return b
}

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

// Centroids returns the centroid table attached to the named
// segment, or nil.
func (s *Store) Centroids(name string) *Centroids { return s.cents[name] }

// TrainCentroids builds and attaches a deterministic k-means table
// over the named segment. k is clamped to the segment's row count;
// the same (rows, k, seed) always yields the same table bit for bit,
// on any number of workers.
func (s *Store) TrainCentroids(name string, k int, seed uint64, workers int) error {
	v, ok := s.View(name)
	if !ok {
		return fmt.Errorf("vecstore: no segment %q", name)
	}
	if v.Len() == 0 || k <= 0 {
		return nil
	}
	c := Train(v.Vec, v.Len(), s.dim, k, seed, workers)
	if s.cents == nil {
		s.cents = make(map[string]*Centroids)
	}
	s.cents[name] = c
	return nil
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

// Centroids returns the segment's attached centroid table, or nil.
func (v View) Centroids() *Centroids {
	if v.s == nil {
		return nil
	}
	return v.s.cents[v.seg.name]
}

// Hit is one TopK result: a segment-relative row and its raw dot
// product with the query.
type Hit struct {
	Row   int
	Score float64
}

// SearchStats counts the work one or more TopK calls performed.
type SearchStats struct {
	VecDots         int // exact row dot products
	CentroidDots    int // centroid distance evaluations
	ClustersScanned int
	ClustersSkipped int // skipped by bound or nprobe cutoff
}

// TopK returns the k rows with the highest dot product against q,
// ordered by (score desc, row asc). Without an attached centroid
// table it scans exhaustively. With one, clusters are visited in
// ascending centroid distance; a cluster is skipped when its upper
// dot bound cannot beat the current k-th score (lossless) or when
// nprobe > 0 clusters have already been scanned (lossy). nprobe <= 0
// means "all": bit-identical to the exhaustive scan.
func (v View) TopK(q []float32, k, nprobe int, st *SearchStats) []Hit {
	if v.s == nil || v.seg.n == 0 || k <= 0 || len(q) != v.s.dim {
		return nil
	}
	c := v.Centroids()
	if c == nil {
		return v.scanAll(q, k, st)
	}
	return v.scanPruned(c, q, k, nprobe, st)
}

func (v View) scanAll(q []float32, k int, st *SearchStats) []Hit {
	h := newTopHeap(k)
	for i := 0; i < v.seg.n; i++ {
		h.offer(i, dot(q, v.Vec(i)))
	}
	if st != nil {
		st.VecDots += v.seg.n
	}
	return h.sorted()
}

func (v View) scanPruned(c *Centroids, q []float32, k, nprobe int, st *SearchStats) []Hit {
	order, maxDot := c.queryBounds(q)
	if st != nil {
		st.CentroidDots += c.k
	}
	h := newTopHeap(k)
	scanned := 0
	for _, j := range order {
		if nprobe > 0 && scanned >= nprobe {
			if st != nil {
				st.ClustersSkipped += len(order) - scanned
			}
			break
		}
		// Lossless skip: even the best possible row in this cluster
		// cannot displace the current k-th hit. BoundEps absorbs the
		// (tiny, well-bounded) floating-point error in the bound so
		// the skip never fires on a row the exhaustive scan would keep.
		if h.full() && maxDot[j]+BoundEps < h.worstScore() {
			if st != nil {
				st.ClustersSkipped++
			}
			continue
		}
		scanned++
		if st != nil {
			st.ClustersScanned++
			st.VecDots += len(c.members[j])
		}
		for _, row := range c.members[j] {
			h.offer(int(row), dot(q, v.Vec(int(row))))
		}
	}
	return h.sorted()
}

// dot accumulates in float64 in index order — the exact expression
// embedding.Vector.Dot uses, so scores here are bit-identical to the
// pre-vecstore comparators.
func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// norm matches embedding.Vector.Norm bit for bit.
func norm(a []float32) float64 { return math.Sqrt(dot(a, a)) }

// --- top-k selection ---

// topHeap keeps the k best (score desc, row asc) hits seen so far as
// a min-heap keyed by "worst first".
type topHeap struct {
	k    int
	hits []Hit
}

func newTopHeap(k int) *topHeap { return &topHeap{k: k, hits: make([]Hit, 0, k)} }

func (h *topHeap) full() bool { return len(h.hits) == h.k }

func (h *topHeap) worstScore() float64 { return h.hits[0].Score }

// worse reports whether a ranks strictly below b under
// (score desc, row asc).
func worse(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Row > b.Row
}

func (h *topHeap) offer(row int, score float64) {
	nh := Hit{Row: row, Score: score}
	if len(h.hits) < h.k {
		h.hits = append(h.hits, nh)
		h.up(len(h.hits) - 1)
		return
	}
	if !worse(h.hits[0], nh) {
		return
	}
	h.hits[0] = nh
	h.down(0)
}

func (h *topHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h.hits[i], h.hits[p]) {
			return
		}
		h.hits[i], h.hits[p] = h.hits[p], h.hits[i]
		i = p
	}
}

func (h *topHeap) down(i int) {
	n := len(h.hits)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && worse(h.hits[l], h.hits[m]) {
			m = l
		}
		if r < n && worse(h.hits[r], h.hits[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.hits[i], h.hits[m] = h.hits[m], h.hits[i]
		i = m
	}
}

// sorted drains the heap into (score desc, row asc) order.
func (h *topHeap) sorted() []Hit {
	out := h.hits
	sort.Slice(out, func(i, j int) bool { return worse(out[j], out[i]) })
	return out
}

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
