package vecstore

import (
	"bytes"
	"math/rand"
	"testing"

	"tablehound/internal/snap"
)

// segStore builds a store of the named segments, rows[i] rows of dim
// random values each, seeded by seed.
func segStore(t testing.TB, dim int, names []string, rows []int, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(dim)
	for i, name := range names {
		b.Grow(name, rows[i])
		for r := 0; r < rows[i]; r++ {
			v := make([]float32, dim)
			for d := range v {
				v[d] = float32(rng.NormFloat64())
			}
			b.Append(name, v)
		}
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encodedBlob is what the portable encoding path writes for s.
func encodedBlob(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.writeBlob(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBlobCRCInPlaceMatchesEncoded: where the host allows it, the blob
// is written and checksummed from the rows and norms where they lie;
// that must give the bytes and the CRC the portable encoding gives, on
// every shape — an odd dimension over an odd row count needs the pad —
// and on a store with a shared segment.
func TestBlobCRCInPlaceMatchesEncoded(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("in-place blob bytes need a little-endian host")
	}
	rng := rand.New(rand.NewSource(5))
	check := func(s *Store, what string) {
		t.Helper()
		var inPlace bytes.Buffer
		if err := s.writeBlob(&inPlace, true); err != nil {
			t.Fatal(err)
		}
		enc := encodedBlob(t, s)
		if !bytes.Equal(inPlace.Bytes(), enc) {
			t.Fatalf("%s: in-place blob differs from the encoded one", what)
		}
		if uint64(len(enc)) != s.BlobLen() {
			t.Fatalf("%s: blob of %d bytes, BlobLen %d", what, len(enc), s.BlobLen())
		}
		if a, b := s.crc(true), s.crc(false); a != b || a != s.BlobCRC() {
			t.Fatalf("%s: in-place CRC %08x, encoded %08x, stored %08x", what, a, b, s.BlobCRC())
		}
	}
	check(segStore(t, 3, []string{"a", "b"}, []int{5, 2}, 1), "odd dim x odd rows")
	for trial := 0; trial < 20; trial++ {
		dim := 1 + rng.Intn(9)
		names := []string{"model", "starmie", "c"}[:1+rng.Intn(3)]
		rows := make([]int, len(names))
		for i := range rows {
			rows[i] = rng.Intn(40)
		}
		s := segStore(t, dim, names, rows, int64(trial))
		check(s, "random shape")
		if v, ok := s.View(names[0]); ok {
			b := NewBuilder(dim)
			b.Share("shared", v)
			b.Append("own", make([]float32, dim))
			shared, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			check(shared, "shared segment")
		}
	}
}

// TestSharedSegmentStoreMatchesCopy: a store that shares another's
// segment writes the blob, and carries the CRC, of one that copies the
// segment's rows, and its rows are the other store's own.
func TestSharedSegmentStoreMatchesCopy(t *testing.T) {
	const dim = 7
	base := segStore(t, dim, []string{"model", "starmie"}, []int{13, 9}, 3)
	mv, _ := base.View("model")
	extra := synthVecs(11, dim, 3, 4)

	copied := NewBuilder(dim)
	copied.Grow("model", mv.Len())
	for i := 0; i < mv.Len(); i++ {
		copied.Append("model", mv.Vec(i))
	}
	shared := NewBuilder(dim)
	shared.Share("model", mv)
	for _, v := range extra {
		copied.Append("starmie", v)
		shared.Append("starmie", v)
	}
	want, err := copied.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := shared.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blobOf(t, got), blobOf(t, want)) || got.BlobCRC() != want.BlobCRC() {
		t.Fatal("a store sharing a segment wrote another blob than one copying it")
	}
	if got.Count() != want.Count() || got.BlobLen() != want.BlobLen() {
		t.Fatalf("shared store has %d rows in %d bytes, copying one %d in %d", got.Count(), got.BlobLen(), want.Count(), want.BlobLen())
	}
	sameRows(t, got, want)
	gv, _ := got.View("model")
	for i := 0; i < mv.Len(); i++ {
		if &gv.Vec(i)[0] != &mv.Vec(i)[0] {
			t.Fatalf("shared row %d is a copy", i)
		}
	}

	// A shared segment takes no appends, and its rows must have the
	// store's dimension.
	b := NewBuilder(dim)
	b.Share("model", mv)
	b.Append("model", make([]float32, dim))
	if _, err := b.Build(); err == nil {
		t.Error("appending to a shared segment built")
	}
	b = NewBuilder(dim + 1)
	b.Share("model", mv)
	if _, err := b.Build(); err == nil {
		t.Error("sharing rows of another dimension built")
	}
}

// TestSmallBlobHeapMatchesMmap: the heap read views its aligned buffer
// in place, down to the smallest blobs — none at all, and one row of
// one dimension (4 data bytes, 4 pad bytes, one norm) — and must serve
// what the mapping serves.
func TestSmallBlobHeapMatchesMmap(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported here")
	}
	for _, s := range []*Store{
		segStore(t, 1, nil, nil, 1),
		segStore(t, 1, []string{"a"}, []int{1}, 2),
		segStore(t, 3, []string{"a", "b"}, []int{1, 2}, 3),
	} {
		var buf bytes.Buffer
		sw := snap.NewWriter(&buf)
		if err := sw.Section(1, s.AppendDirectory); err != nil {
			t.Fatal(err)
		}
		buf.Write(make([]byte, PadTo(sw.Written())))
		blobOff := buf.Len()
		if err := s.WriteBlob(&buf); err != nil {
			t.Fatal(err)
		}
		dirOf := func() *Directory {
			sr := snap.NewReader(buf.Bytes())
			var dir *Directory
			if err := sr.Section(1, func(d *snap.Decoder) error {
				var err error
				dir, err = DecodeDirectory(d)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			return dir
		}
		heap, err := dirOf().ReadBlob(buf.Bytes()[blobOff:])
		if err != nil {
			t.Fatalf("%d-byte blob: heap read: %v", s.BlobLen(), err)
		}
		mapping := mapBytes(t, buf.Bytes())
		mapped, err := dirOf().ViewBlob(mapping[blobOff:], mapping)
		if err != nil {
			t.Fatalf("%d-byte blob: mmap: %v", s.BlobLen(), err)
		}
		if heap.Residency() != "heap" || heap.HeapBytes() != s.HeapBytes() {
			t.Errorf("%d-byte blob: heap read is %q with %d heap bytes", s.BlobLen(), heap.Residency(), heap.HeapBytes())
		}
		if !bytes.Equal(blobOf(t, heap), blobOf(t, mapped)) || !bytes.Equal(blobOf(t, heap), blobOf(t, s)) {
			t.Errorf("%d-byte blob: heap read and mapping differ", s.BlobLen())
		}
		sameRows(t, heap, s)
		sameRows(t, mapped, s)
		mapped.Close()
	}
}

// TestResidencyMixed: a store sharing a mapped segment beside heap rows
// reports itself mixed, and counts only its heap rows.
func TestResidencyMixed(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported here")
	}
	s := segStore(t, 4, []string{"model"}, []int{6}, 9)
	var buf bytes.Buffer
	if err := s.WriteBlob(&buf); err != nil {
		t.Fatal(err)
	}
	mapping := mapBytes(t, buf.Bytes())
	e := &snap.Encoder{}
	s.AppendDirectory(e)
	dir, err := DecodeDirectory(snap.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := dir.ViewBlob(mapping, mapping)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	mv, _ := mapped.View("model")
	b := NewBuilder(4)
	b.Share("model", mv)
	b.Append("starmie", []float32{1, 2, 3, 4})
	mixed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := mixed.Residency(); got != "mixed" {
		t.Errorf("residency %q, want mixed", got)
	}
	if got, want := mixed.HeapBytes(), int64(4*4+8); got != want {
		t.Errorf("heap bytes %d, want %d (the one heap row)", got, want)
	}
	sv, _ := mixed.View("starmie")
	if mv2, _ := mixed.View("model"); !mv2.Mapped() || sv.Mapped() {
		t.Error("segment residency: model should be mapped, starmie not")
	}
}

// TestReadBlobDecodingPathMatchesInPlace runs the heap read's
// big-endian path — every value decoded out of the buffer — on this
// host by clearing hostLittleEndian, and holds it to the in-place view.
func TestReadBlobDecodingPathMatchesInPlace(t *testing.T) {
	s := segStore(t, 5, []string{"a", "b"}, []int{3, 4}, 8)
	read := func() *Store {
		t.Helper()
		e := &snap.Encoder{}
		s.AppendDirectory(e)
		dir, err := DecodeDirectory(snap.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := dir.ReadBlob(encodedBlob(t, s))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	inPlace := read()
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	decoded := read()
	sameRows(t, decoded, s)
	sameRows(t, inPlace, s)
	if !bytes.Equal(blobOf(t, decoded), encodedBlob(t, s)) || decoded.BlobCRC() != s.BlobCRC() {
		t.Fatal("the decoding path's store writes another blob")
	}
}
