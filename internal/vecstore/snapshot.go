package vecstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"tablehound/internal/snap"
)

// On-disk model: the snapshot carries a small *directory* section
// (dim, count, segment table, centroid tables, blob length + CRC)
// through the normal CRC-framed section stream, and the raw *blob*
// (row-major float32 data, zero pad to 8, float64 norms) as a tail
// after the last section, zero-padded so its first byte sits at a
// 64-byte-aligned file offset. The blob's layout is exactly its
// in-memory layout on a little-endian machine, which is what makes
// the mmap view zero-copy; the heap fallback decodes the same bytes
// portably and is byte-for-byte equivalent.

const (
	vecFormatV1 = 1

	// maxBlobBytes bounds the declared blob size before any
	// allocation or slice construction (matches snap's section cap).
	maxBlobBytes = 1 << 34

	// maxDim and maxRows bound the declared shape so dim*count*4
	// arithmetic below cannot overflow and rows always fit int32.
	maxDim  = 1 << 20
	maxRows = 1<<31 - 1
)

// blobAlign is the file alignment of the blob's first byte. Keeping
// it a multiple of the float32 size (and generously cache-line
// sized) means the mmap'd data slice is always well aligned.
const blobAlign = 64

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// PadTo returns how many zero bytes must follow offset off so the
// next byte is blobAlign-aligned.
func PadTo(off int64) int {
	return int((blobAlign - off%blobAlign) % blobAlign)
}

// BlobLen returns the byte length of the store's raw blob.
func (s *Store) BlobLen() uint64 {
	dataBytes := uint64(len(s.data)) * 4
	return align8(dataBytes) + uint64(len(s.norms))*8
}

// AppendDirectory encodes everything about the store except the raw
// blob bytes: shape, segment table, centroid tables, and the blob's
// length and CRC for cross-checking at load time.
func (s *Store) AppendDirectory(e *snap.Encoder) {
	e.U32(vecFormatV1)
	e.U64(uint64(s.dim))
	e.U64(uint64(s.Count()))
	e.U64(s.BlobLen())
	e.U32(s.blobCRC)
	e.U64(uint64(len(s.segs)))
	for _, sg := range s.segs {
		e.Str(sg.name)
		e.U64(uint64(sg.n))
	}
	e.U64(uint64(len(s.cents)))
	for _, sg := range s.segs { // deterministic order: segment order
		c, ok := s.cents[sg.name]
		if !ok {
			continue
		}
		e.Str(sg.name)
		e.U64(uint64(c.k))
		e.F32s(c.cents)
		e.F64s(c.radius)
		e.F64s(c.maxNorm2)
		e.I32s(c.assign)
	}
}

// Directory is the decoded, validated metadata for a vector blob; it
// is consumed by exactly one of ReadBlob (heap) or MmapBlob.
type Directory struct {
	Dim     int
	Count   int
	BlobLen uint64
	CRC     uint32

	segs  []segment
	segIx map[string]int
	cents map[string]*Centroids
}

// DecodeDirectory decodes and fully validates a directory. Every
// declared size is checked against the others — in particular
// dim*count*4 (computed overflow-safe) must agree with the declared
// blob length — before any slice or mapping is constructed, so a
// corrupt directory can never produce an out-of-bounds view.
func DecodeDirectory(d *snap.Decoder) (*Directory, error) {
	corrupt := func(format string, args ...any) (*Directory, error) {
		return nil, fmt.Errorf("%w: vecstore: %s", snap.ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if f := d.U32(); f != vecFormatV1 {
		return corrupt("unknown format %d", f)
	}
	dim := d.U64()
	count := d.U64()
	blobLen := d.U64()
	crc := d.U32()
	if dim > maxDim || count > maxRows {
		return corrupt("implausible shape %dx%d", count, dim)
	}
	if count > 0 && dim == 0 {
		return corrupt("%d rows with dim 0", count)
	}
	// dim <= 2^20 and count <= 2^31, so dim*count*4 <= 2^53: no overflow.
	dataBytes := dim * count * 4
	wantBlob := align8(dataBytes) + count*8
	if blobLen != wantBlob || blobLen > maxBlobBytes {
		return corrupt("blob length %d disagrees with shape %dx%d (want %d)", blobLen, count, dim, wantBlob)
	}

	dir := &Directory{
		Dim:     int(dim),
		Count:   int(count),
		BlobLen: blobLen,
		CRC:     crc,
		segIx:   make(map[string]int),
	}
	nsegs := d.U64()
	if nsegs > count {
		return corrupt("%d segments over %d rows", nsegs, count)
	}
	off := 0
	for i := uint64(0); i < nsegs; i++ {
		name := d.Str()
		n := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if name == "" {
			return corrupt("empty segment name")
		}
		if _, dup := dir.segIx[name]; dup {
			return corrupt("duplicate segment %q", name)
		}
		if n == 0 || n > count-uint64(off) {
			return corrupt("segment %q: %d rows over store count %d", name, n, count)
		}
		dir.segIx[name] = len(dir.segs)
		dir.segs = append(dir.segs, segment{name: name, off: off, n: int(n)})
		off += int(n)
	}
	if uint64(off) != count {
		return corrupt("segments cover %d of %d rows", off, count)
	}

	ncents := d.U64()
	if ncents > nsegs {
		return corrupt("%d centroid tables over %d segments", ncents, nsegs)
	}
	for i := uint64(0); i < ncents; i++ {
		name := d.Str()
		k := d.U64()
		cents := d.F32s()
		radius := d.F64s()
		maxNorm2 := d.F64s()
		assign := d.I32s()
		if d.Err() != nil {
			return nil, d.Err()
		}
		ix, ok := dir.segIx[name]
		if !ok {
			return corrupt("centroid table for unknown segment %q", name)
		}
		segN := dir.segs[ix].n
		if k < 1 || k > uint64(segN) {
			return corrupt("segment %q: %d centroids over %d rows", name, k, segN)
		}
		if uint64(len(cents)) != k*dim || uint64(len(radius)) != k || uint64(len(maxNorm2)) != k {
			return corrupt("segment %q: centroid table shape mismatch", name)
		}
		if len(assign) != segN {
			return corrupt("segment %q: %d assignments for %d rows", name, len(assign), segN)
		}
		c := &Centroids{
			k:         int(k),
			dim:       int(dim),
			cents:     cents,
			radius:    radius,
			maxNorm2:  maxNorm2,
			assign:    assign,
			centNorm2: make([]float64, k),
			members:   make([][]int32, k),
		}
		for j := 0; j < c.k; j++ {
			c.centNorm2[j] = dot(c.cent(j), c.cent(j))
		}
		for row, j := range assign {
			if j < 0 || int(j) >= c.k {
				return corrupt("segment %q: row %d assigned to cluster %d of %d", name, row, j, k)
			}
			c.members[j] = append(c.members[j], int32(row))
		}
		if dir.cents == nil {
			dir.cents = make(map[string]*Centroids)
		}
		if _, dup := dir.cents[name]; dup {
			return corrupt("duplicate centroid table for segment %q", name)
		}
		dir.cents[name] = c
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return dir, nil
}

// WriteBlob writes the raw blob (data, pad to 8, norms). The caller
// must have positioned w at a blobAlign-aligned file offset.
func (s *Store) WriteBlob(w io.Writer) error {
	return writeBlob(w, s.data, s.norms)
}

func writeBlob(w io.Writer, data []float32, norms []float64) error {
	var buf [32 * 1024]byte
	fill := 0
	flush := func() error {
		if fill == 0 {
			return nil
		}
		_, err := w.Write(buf[:fill])
		fill = 0
		return err
	}
	for _, v := range data {
		if fill+4 > len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint32(buf[fill:], math.Float32bits(v))
		fill += 4
	}
	if pad := int(align8(uint64(len(data))*4) - uint64(len(data))*4); pad > 0 {
		if fill+pad > len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		for i := 0; i < pad; i++ {
			buf[fill+i] = 0
		}
		fill += pad
	}
	for _, v := range norms {
		if fill+8 > len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint64(buf[fill:], math.Float64bits(v))
		fill += 8
	}
	return flush()
}

// blobCRC is the CRC32-IEEE of exactly the bytes WriteBlob emits.
func blobCRC(data []float32, norms []float64) uint32 {
	h := crc32.NewIEEE()
	writeBlob(h, data, norms) // hash.Hash never errors
	return h.Sum32()
}

// ReadBlob consumes the blob from r, verifies its CRC, and decodes
// it onto the heap — the portable fallback, byte-identical in effect
// to the mmap path.
func (dir *Directory) ReadBlob(r io.Reader) (*Store, error) {
	// Read in 64 MiB chunks: a declared length the stream does not hold
	// fails at the stream's end instead of sizing one allocation.
	var raw []byte
	for n := 0; n < int(dir.BlobLen); n = len(raw) {
		m := min(int(dir.BlobLen)-n, 64<<20)
		raw = slices.Grow(raw, m)[:n+m]
		if _, err := io.ReadFull(r, raw[n:]); err != nil {
			return nil, fmt.Errorf("%w: vecstore: short blob: %v", snap.ErrCorrupt, err)
		}
	}
	if got := crc32.ChecksumIEEE(raw); got != dir.CRC {
		return nil, fmt.Errorf("%w: vecstore: blob checksum mismatch", snap.ErrCorrupt)
	}
	nData := dir.Count * dir.Dim
	data := make([]float32, nData)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	normsOff := int(align8(uint64(nData) * 4))
	for i := nData * 4; i < normsOff; i++ {
		if raw[i] != 0 {
			return nil, fmt.Errorf("%w: vecstore: nonzero blob padding", snap.ErrCorrupt)
		}
	}
	norms := make([]float64, dir.Count)
	for i := range norms {
		norms[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[normsOff+i*8:]))
	}
	return dir.assemble(data, norms, nil), nil
}

// MmapBlob maps the blob at byte offset off of f (off must be
// blobAlign-aligned, as produced by PadTo) and returns a store whose
// data and norms alias the mapping. The blob CRC is intentionally
// not verified here — reading every page would make load O(bytes)
// again; the directory's shape checks plus the kernel's page cache
// are the integrity story for the mmap path, and ReadBlob exists for
// full verification.
func (dir *Directory) MmapBlob(f *os.File, off int64) (*Store, error) {
	if dir.BlobLen == 0 {
		return dir.assemble(nil, nil, nil), nil
	}
	if !MmapSupported() {
		return nil, fmt.Errorf("vecstore: mmap unsupported on this platform")
	}
	if off < 0 || off%blobAlign != 0 {
		return nil, fmt.Errorf("%w: vecstore: blob offset %d not %d-aligned", snap.ErrCorrupt, off, blobAlign)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if uint64(st.Size()) < uint64(off)+dir.BlobLen {
		return nil, fmt.Errorf("%w: vecstore: file holds %d bytes, blob needs %d at offset %d",
			snap.ErrCorrupt, st.Size(), dir.BlobLen, off)
	}
	view, mapping, err := mmapRegion(f, off, int(dir.BlobLen))
	if err != nil {
		return nil, err
	}
	nData := dir.Count * dir.Dim
	normsOff := int(align8(uint64(nData) * 4))
	var data []float32
	var norms []float64
	if nData > 0 {
		data = f32sOf(view[:nData*4])
	}
	if dir.Count > 0 {
		norms = f64sOf(view[normsOff : normsOff+dir.Count*8])
	}
	return dir.assemble(data, norms, mapping), nil
}

func (dir *Directory) assemble(data []float32, norms []float64, mapping []byte) *Store {
	return &Store{
		dim:     dir.Dim,
		data:    data,
		norms:   norms,
		segs:    dir.segs,
		segIx:   dir.segIx,
		cents:   dir.cents,
		blobCRC: dir.CRC,
		mapping: mapping,
	}
}
