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
	"sort"
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

// refTopK is the independent exhaustive reference: full sort by
// (score desc, row asc), truncate.
func refTopK(vecs [][]float32, q []float32, k int) []Hit {
	hits := make([]Hit, len(vecs))
	for i, v := range vecs {
		hits[i] = Hit{Row: i, Score: dot(q, v)}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Row < hits[j].Row
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
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

func TestTopKExhaustiveMatchesReference(t *testing.T) {
	vecs := synthVecs(500, 24, 7, 2)
	s := buildStore(t, vecs, "a")
	v, _ := s.View("a")
	queries := synthVecs(25, 24, 7, 3)
	for _, k := range []int{1, 3, 10, 499, 500, 600} {
		for _, q := range queries {
			got := v.TopK(q, k, 0, nil)
			want := refTopK(vecs, q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: exhaustive TopK differs from reference", k)
			}
		}
	}
}

func TestPrunedNProbeAllBitIdentical(t *testing.T) {
	vecs := synthVecs(2000, 32, 13, 4)
	s := buildStore(t, vecs, "a")
	if err := s.TrainCentroids("a", 24, 99, 1); err != nil {
		t.Fatal(err)
	}
	v, _ := s.View("a")
	queries := synthVecs(50, 32, 13, 5)
	for _, k := range []int{1, 10, 100} {
		for _, q := range queries {
			var st SearchStats
			got := v.TopK(q, k, 0, &st)
			want := refTopK(vecs, q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: got %d hits, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] { // exact == on score and row
					t.Fatalf("k=%d hit %d: got %+v, want %+v", k, i, got[i], want[i])
				}
			}
			if st.VecDots+0 > len(vecs) {
				t.Fatalf("scanned %d dots over %d rows", st.VecDots, len(vecs))
			}
		}
	}
}

func TestPrunedActuallyPrunes(t *testing.T) {
	vecs := synthVecs(5000, 32, 16, 6)
	s := buildStore(t, vecs, "a")
	if err := s.TrainCentroids("a", 70, 7, 1); err != nil {
		t.Fatal(err)
	}
	v, _ := s.View("a")
	var st SearchStats
	queries := synthVecs(20, 32, 16, 8)
	for _, q := range queries {
		v.TopK(q, 10, 0, &st)
	}
	exhaustive := len(queries) * len(vecs)
	if st.VecDots >= exhaustive {
		t.Fatalf("lossless pruning did no work reduction: %d dots vs %d exhaustive", st.VecDots, exhaustive)
	}
	if st.ClustersSkipped == 0 {
		t.Fatal("no clusters were skipped")
	}
	t.Logf("lossless: %d/%d dots (%.1fx), %d skipped clusters",
		st.VecDots, exhaustive, float64(exhaustive)/float64(st.VecDots), st.ClustersSkipped)
}

func TestNProbeLimitsWork(t *testing.T) {
	vecs := synthVecs(3000, 32, 10, 9)
	s := buildStore(t, vecs, "a")
	if err := s.TrainCentroids("a", 50, 11, 1); err != nil {
		t.Fatal(err)
	}
	v, _ := s.View("a")
	q := synthVecs(1, 32, 10, 10)[0]
	var st SearchStats
	v.TopK(q, 10, 3, &st)
	if st.ClustersScanned > 3 {
		t.Fatalf("nprobe=3 scanned %d clusters", st.ClustersScanned)
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
	total := 0
	for j := 0; j < c.K(); j++ {
		total += len(c.Members(j))
	}
	if total != 50 {
		t.Fatalf("members cover %d of 50 rows", total)
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
	if err := s.TrainCentroids("a", 9, HashStrings([]string{"x", "y"}), 1); err != nil {
		t.Fatal(err)
	}

	got := roundTrip(t, s)
	if !reflect.DeepEqual(got.data, s.data) || !reflect.DeepEqual(got.norms, s.norms) {
		t.Fatal("blob data changed across round trip")
	}
	if !reflect.DeepEqual(got.segs, s.segs) {
		t.Fatalf("segments changed: %+v vs %+v", got.segs, s.segs)
	}
	if !reflect.DeepEqual(got.cents["a"], s.cents["a"]) {
		t.Fatal("centroid table changed across round trip")
	}
	if got.BlobCRC() != s.BlobCRC() {
		t.Fatal("CRC changed")
	}

	// Loaded store answers identically.
	va, _ := s.View("a")
	ga, _ := got.View("a")
	q := synthVecs(1, 16, 5, 21)[0]
	if !reflect.DeepEqual(va.TopK(q, 7, 0, nil), ga.TopK(q, 7, 0, nil)) {
		t.Fatal("loaded store search differs")
	}
}

func TestMmapParity(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported here")
	}
	vecs := synthVecs(400, 12, 4, 30)
	s := buildStore(t, vecs, "a")
	if err := s.TrainCentroids("a", 10, 3, 1); err != nil {
		t.Fatal(err)
	}

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
	mv, _ := m.View("a")
	sv, _ := s.View("a")
	q := synthVecs(1, 12, 4, 31)[0]
	if !reflect.DeepEqual(mv.TopK(q, 5, 0, nil), sv.TopK(q, 5, 0, nil)) {
		t.Fatal("mmap search differs from heap search")
	}
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
		e.U64(0)
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
		e.U64(0)
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

func TestConcurrentTopK(t *testing.T) {
	vecs := synthVecs(1000, 16, 8, 60)
	s := buildStore(t, vecs, "a")
	if err := s.TrainCentroids("a", 16, 1, 1); err != nil {
		t.Fatal(err)
	}
	v, _ := s.View("a")
	queries := synthVecs(64, 16, 8, 61)
	done := make(chan []Hit, len(queries))
	for _, q := range queries {
		q := q
		go func() { done <- v.TopK(q, 5, 0, nil) }()
	}
	for range queries {
		<-done
	}
}
