package vecstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"tablehound/internal/snap"
)

// On-disk model: the snapshot carries a small *directory* section
// (dim, count, segment table, blob length + CRC)
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
	return align8(uint64(s.DataBytes())) + uint64(s.NormBytes())
}

// AppendDirectory encodes everything about the store except the raw
// blob bytes: shape, segment table, and the blob's length and CRC for
// cross-checking at load time.
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
}

// Directory is the decoded, validated metadata for a vector blob; it
// is consumed by exactly one of ReadBlob (heap) or ViewBlob (mapped).
type Directory struct {
	Dim     int
	Count   int
	BlobLen uint64
	CRC     uint32

	segs  []segment
	segIx map[string]int
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
		dir.segs = append(dir.segs, segment{name: name, n: int(n)})
		off += int(n)
	}
	if uint64(off) != count {
		return corrupt("segments cover %d of %d rows", off, count)
	}

	if err := d.Err(); err != nil {
		return nil, err
	}
	return dir, nil
}

// WriteBlob writes the raw blob: every segment's rows, the zero pad to
// 8, every segment's norms. The caller must have positioned w at a
// blobAlign-aligned file offset.
func (s *Store) WriteBlob(w io.Writer) error {
	return s.writeBlob(w, hostLittleEndian)
}

// writeBlob writes the blob's bytes. inPlace writes each segment's
// rows and norms as they lie in memory, which only a little-endian
// host may do; otherwise every value is encoded through a buffer.
func (s *Store) writeBlob(w io.Writer, inPlace bool) error {
	pad := make([]byte, align8(uint64(s.DataBytes()))-uint64(s.DataBytes()))
	if inPlace {
		for _, sg := range s.segs {
			if _, err := w.Write(f32Bytes(sg.data)); err != nil {
				return err
			}
		}
		if _, err := w.Write(pad); err != nil {
			return err
		}
		for _, sg := range s.segs {
			if _, err := w.Write(f64Bytes(sg.norms)); err != nil {
				return err
			}
		}
		return nil
	}
	var buf [32 * 1024]byte
	fill := 0
	// reserve flushes buf unless n more bytes fit.
	reserve := func(n int) error {
		if fill+n <= len(buf) {
			return nil
		}
		_, err := w.Write(buf[:fill])
		fill = 0
		return err
	}
	for _, sg := range s.segs {
		for _, v := range sg.data {
			if err := reserve(4); err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(buf[fill:], math.Float32bits(v))
			fill += 4
		}
	}
	if err := reserve(len(pad)); err != nil {
		return err
	}
	fill += copy(buf[fill:], pad)
	for _, sg := range s.segs {
		for _, v := range sg.norms {
			if err := reserve(8); err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf[fill:], math.Float64bits(v))
			fill += 8
		}
	}
	_, err := w.Write(buf[:fill])
	return err
}

// crc is the CRC32-IEEE of exactly the bytes WriteBlob emits; inPlace
// as for writeBlob, under which crc32.Update runs over the rows and
// norms where they lie.
func (s *Store) crc(inPlace bool) uint32 {
	h := crc32.NewIEEE()
	s.writeBlob(h, inPlace) // hash.Hash never errors
	return h.Sum32()
}

// MapFile maps the whole of f read-only and shared: the one mapping a
// snapshot load reads its sections out of and takes its blob's view
// from (ViewBlob). An empty file maps to nil. A mapping that no store
// took is released with Unmap; a store releases the one it took in
// Close.
func MapFile(f *os.File) ([]byte, error) {
	if !MmapSupported() {
		return nil, fmt.Errorf("vecstore: mmap unsupported on this platform")
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, nil
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("vecstore: a %d-byte file does not fit the address space", size)
	}
	return mmapFile(f, int(size))
}

// Unmap releases a mapping MapFile returned that no store took.
func Unmap(mapping []byte) error {
	if mapping == nil {
		return nil
	}
	return munmap(mapping)
}

// ReadBlob verifies the blob's CRC and padding and copies it into one
// 8-byte-aligned heap buffer, which a little-endian host then views in
// place as the rows and norms; a big-endian one decodes them from blob.
// The store keeps no reference to blob. This is the portable fallback,
// byte-identical in effect to the mapped path.
func (dir *Directory) ReadBlob(blob []byte) (*Store, error) {
	if err := dir.checkBlob(blob); err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(blob); got != dir.CRC {
		return nil, fmt.Errorf("%w: vecstore: blob checksum mismatch", snap.ErrCorrupt)
	}
	nData, normsOff := dir.nData(), dir.normsOff()
	if hostLittleEndian {
		raw := u64Bytes(make([]uint64, len(blob)/8))
		copy(raw, blob)
		return dir.assemble(f32sOf(raw[:nData*4]), f64sOf(raw[normsOff:]), nil), nil
	}
	data := make([]float32, nData)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[i*4:]))
	}
	norms := make([]float64, dir.Count)
	for i := range norms {
		norms[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[normsOff+i*8:]))
	}
	return dir.assemble(data, norms, nil), nil
}

// u64Bytes views words as their in-memory bytes.
func u64Bytes(words []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)
}

// ViewBlob returns a store whose rows and norms are views of blob,
// which lies inside mapping (a MapFile mapping) at a blobAlign-aligned
// file offset. The store keeps the mapping, and Close unmaps it. The
// blob CRC is intentionally not verified — reading every page would
// make load O(bytes) again; the directory's shape checks plus the
// kernel's page cache are the integrity story for the mapped path, and
// ReadBlob exists for full verification.
func (dir *Directory) ViewBlob(blob, mapping []byte) (*Store, error) {
	if err := dir.checkBlob(blob); err != nil {
		return nil, err
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(blob)))%blobAlign != 0 {
		return nil, fmt.Errorf("vecstore: blob view not %d-byte aligned", blobAlign)
	}
	nData, normsOff := dir.nData(), dir.normsOff()
	return dir.assemble(f32sOf(blob[:nData*4]), f64sOf(blob[normsOff:]), mapping), nil
}

// checkBlob requires blob to be the directory's whole blob, with zero
// padding between the rows and the norms.
func (dir *Directory) checkBlob(blob []byte) error {
	if uint64(len(blob)) != dir.BlobLen {
		return fmt.Errorf("%w: vecstore: blob holds %d bytes, directory declares %d", snap.ErrCorrupt, len(blob), dir.BlobLen)
	}
	for _, b := range blob[dir.nData()*4 : dir.normsOff()] {
		if b != 0 {
			return fmt.Errorf("%w: vecstore: nonzero blob padding", snap.ErrCorrupt)
		}
	}
	return nil
}

// nData is the blob's float32 count; normsOff is where its norms
// start, after the zero pad to 8.
func (dir *Directory) nData() int    { return dir.Count * dir.Dim }
func (dir *Directory) normsOff() int { return int(align8(uint64(dir.nData()) * 4)) }

// assemble cuts the one decoded block — all rows, then all norms — into
// the directory's segments, each owning its run of both.
func (dir *Directory) assemble(data []float32, norms []float64, mapping []byte) *Store {
	s := &Store{
		dim:     dir.Dim,
		count:   dir.Count,
		segs:    make([]segment, len(dir.segs)),
		segIx:   dir.segIx,
		blobCRC: dir.CRC,
		mapping: mapping,
	}
	off := 0
	for i, sg := range dir.segs {
		lo, hi := off*dir.Dim, (off+sg.n)*dir.Dim
		sg.data = data[lo:hi:hi]
		sg.norms = norms[off : off+sg.n : off+sg.n]
		sg.mapped = mapping != nil
		s.segs[i] = sg
		off += sg.n
	}
	return s
}
