package vecstore

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tablehound/internal/snap"
)

// synthVecs produces n clustered unit-ish vectors: c centers with
// Gaussian noise, deterministic.
func synthVecs(n, dim, c int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, c)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for d := range centers[i] {
			centers[i][d] = rng.NormFloat64()
		}
	}
	out := make([][]float32, n)
	for i := range out {
		ctr := centers[i%c]
		v := make([]float32, dim)
		var n2 float64
		for d := range v {
			x := ctr[d] + 0.25*rng.NormFloat64()
			v[d] = float32(x)
			n2 += x * x
		}
		if n2 > 0 {
			s := float32(1 / math.Sqrt(n2))
			for d := range v {
				v[d] *= s
			}
		}
		out[i] = v
	}
	return out
}

func buildStore(t testing.TB, vecs [][]float32, seg string) *Store {
	t.Helper()
	b := NewBuilder(len(vecs[0]))
	for _, v := range vecs {
		b.Append(seg, v)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuilderNormsMatchVectorNorm(t *testing.T) {
	vecs := synthVecs(100, 16, 4, 1)
	s := buildStore(t, vecs, "a")
	v, _ := s.View("a")
	for i := range vecs {
		if got, want := v.Norm(i), norm(vecs[i]); got != want {
			t.Fatalf("norm[%d] = %v, want %v", i, got, want)
		}
		if !reflect.DeepEqual(v.Vec(i), vecs[i]) {
			t.Fatalf("vec[%d] mismatch", i)
		}
	}
}

// TestBuilderGrowSameStore: reserving rows up front changes where the
// block is allocated, never what it holds.
func TestBuilderGrowSameStore(t *testing.T) {
	vecs := synthVecs(300, 16, 4, 2)
	want := buildStore(t, vecs, "a")
	b := NewBuilder(16)
	b.Grow(len(vecs))
	for _, v := range vecs {
		b.Append("a", v)
	}
	got, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.data, want.data) || !reflect.DeepEqual(got.norms, want.norms) || got.BlobCRC() != want.BlobCRC() {
		t.Fatal("a grown builder built a different store")
	}
}

func TestTrainDeterministic(t *testing.T) {
	vecs := synthVecs(800, 16, 6, 12)
	at := func(i int) []float32 { return vecs[i] }
	a := Train(at, len(vecs), 16, 20, 42, 1)
	b := Train(at, len(vecs), 16, 20, 42, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different centroid tables")
	}
	c := Train(at, len(vecs), 16, 20, 43, 1)
	if reflect.DeepEqual(a.assign, c.assign) && reflect.DeepEqual(a.cents, c.cents) {
		t.Log("different seeds converged to identical tables (possible but suspicious)")
	}
}

func TestTrainDegenerate(t *testing.T) {
	// All-identical vectors: k collapses, everything still assigned.
	vecs := make([][]float32, 50)
	for i := range vecs {
		vecs[i] = []float32{1, 2, 3, 4}
	}
	c := Train(func(i int) []float32 { return vecs[i] }, 50, 4, 8, 1, 1)
	for i := range vecs {
		if j := c.AssignOf(i); j < 0 || int(j) >= c.K() {
			t.Fatalf("row %d assigned to cluster %d of %d", i, j, c.K())
		}
	}
}

// roundTrip serializes a store the way core does (directory section
// via snap framing, then pad, then blob) and reloads it on the heap.
func roundTrip(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	sw := snap.NewWriter(&buf)
	if err := sw.Section(1, s.AppendDirectory); err != nil {
		t.Fatal(err)
	}
	pad := PadTo(sw.Written())
	buf.Write(make([]byte, pad))
	if err := s.WriteBlob(&buf); err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(buf.Bytes())
	sr := snap.NewReader(r)
	var dir *Directory
	if err := sr.Section(1, func(d *snap.Decoder) error {
		var err error
		dir, err = DecodeDirectory(d)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	skip := make([]byte, PadTo(sr.Consumed()))
	if _, err := r.Read(skip); err != nil {
		t.Fatal(err)
	}
	got, err := dir.ReadBlob(r)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSnapshotRoundTripHeap(t *testing.T) {
	vecs := synthVecs(300, 16, 5, 20)
	b := NewBuilder(16)
	for i, v := range vecs {
		seg := "a"
		if i >= 200 {
			seg = "b"
		}
		b.Append(seg, v)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	got := roundTrip(t, s)
	if !reflect.DeepEqual(got.data, s.data) || !reflect.DeepEqual(got.norms, s.norms) {
		t.Fatal("blob data changed across round trip")
	}
	if !reflect.DeepEqual(got.segs, s.segs) {
		t.Fatalf("segments changed: %+v vs %+v", got.segs, s.segs)
	}
	if got.BlobCRC() != s.BlobCRC() {
		t.Fatal("CRC changed")
	}

	sameRows(t, got, s)
}

// sameRows checks that every segment of got serves want's rows and
// norms, bit for bit.
func sameRows(t *testing.T, got, want *Store) {
	t.Helper()
	for _, name := range want.Segments() {
		gv, ok := got.View(name)
		wv, _ := want.View(name)
		if !ok || gv.Len() != wv.Len() {
			t.Fatalf("segment %q: got %d rows, want %d", name, gv.Len(), wv.Len())
		}
		for i := 0; i < wv.Len(); i++ {
			if !reflect.DeepEqual(gv.Vec(i), wv.Vec(i)) || gv.Norm(i) != wv.Norm(i) {
				t.Fatalf("segment %q row %d differs", name, i)
			}
		}
	}
}

func TestMmapParity(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported here")
	}
	vecs := synthVecs(400, 12, 4, 30)
	s := buildStore(t, vecs, "a")

	var buf bytes.Buffer
	sw := snap.NewWriter(&buf)
	if err := sw.Section(1, s.AppendDirectory); err != nil {
		t.Fatal(err)
	}
	pad := PadTo(sw.Written())
	buf.Write(make([]byte, pad))
	blobOff := int64(buf.Len())
	if err := s.WriteBlob(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vec.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sr := snap.NewReader(bytes.NewReader(buf.Bytes()))
	var dir *Directory
	if err := sr.Section(1, func(d *snap.Decoder) error {
		var derr error
		dir, derr = DecodeDirectory(d)
		return derr
	}); err != nil {
		t.Fatal(err)
	}
	m, err := dir.MmapBlob(f, blobOff)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Fatal("store not mapped")
	}
	if !reflect.DeepEqual(m.data, s.data) || !reflect.DeepEqual(m.norms, s.norms) {
		t.Fatal("mmap view differs from built data")
	}
	sameRows(t, m, s)
}

func TestDirectoryRejectsShapeMismatch(t *testing.T) {
	s := buildStore(t, synthVecs(50, 8, 2, 40), "a")

	// Encode a directory whose declared blob length disagrees with
	// dim*count*4: must be rejected before any blob is read.
	corrupt := func(mut func(e *snap.Encoder)) error {
		e := &snap.Encoder{}
		mut(e)
		d := snap.NewDecoder(e.Bytes())
		_, err := DecodeDirectory(d)
		return err
	}

	err := corrupt(func(e *snap.Encoder) {
		e.U32(vecFormatV1)
		e.U64(8)
		e.U64(50)
		e.U64(uint64(s.BlobLen()) + 8) // lies about the blob
		e.U32(s.blobCRC)
		e.U64(1)
		e.Str("a")
		e.U64(50)
	})
	if !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("blob-length lie not rejected: %v", err)
	}

	err = corrupt(func(e *snap.Encoder) {
		e.U32(vecFormatV1)
		e.U64(1 << 30) // dim * count * 4 would overflow naive int32 math
		e.U64(1 << 30)
		e.U64(0)
		e.U32(0)
		e.U64(0)
	})
	if !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("implausible shape not rejected: %v", err)
	}

	err = corrupt(func(e *snap.Encoder) {
		e.U32(vecFormatV1)
		e.U64(8)
		e.U64(50)
		e.U64(s.BlobLen())
		e.U32(s.blobCRC)
		e.U64(1)
		e.Str("a")
		e.U64(49) // segment table does not cover the store
	})
	if !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("short segment table not rejected: %v", err)
	}
}

func TestReadBlobRejectsCorruption(t *testing.T) {
	s := buildStore(t, synthVecs(64, 8, 2, 50), "a")
	var blob bytes.Buffer
	if err := s.WriteBlob(&blob); err != nil {
		t.Fatal(err)
	}
	dirOf := func() *Directory {
		e := &snap.Encoder{}
		s.AppendDirectory(e)
		d := snap.NewDecoder(e.Bytes())
		dir, err := DecodeDirectory(d)
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// Bit flip anywhere in the blob fails the CRC.
	for off := 0; off < blob.Len(); off += 101 {
		raw := append([]byte(nil), blob.Bytes()...)
		raw[off] ^= 0x10
		if _, err := dirOf().ReadBlob(bytes.NewReader(raw)); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("bit flip at %d not rejected: %v", off, err)
		}
	}
	// Truncation fails the length read.
	if _, err := dirOf().ReadBlob(bytes.NewReader(blob.Bytes()[:blob.Len()-3])); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("truncation not rejected: %v", err)
	}
	// Pristine blob loads.
	if _, err := dirOf().ReadBlob(bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatal(err)
	}
	// A directory that declares a 16 GiB blob over the same short
	// stream fails without allocating the declared length.
	big := dirOf()
	big.Count, big.Dim = 1<<26, 63
	big.BlobLen = uint64(big.Count*big.Dim*4) + uint64(big.Count)*8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := big.ReadBlob(bytes.NewReader(blob.Bytes())); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("over-declared blob: err = %v, want snap.ErrCorrupt", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<20 {
		t.Errorf("reading a short stream allocated %d MiB", grew>>20)
	}
}
