package lsh

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tablehound/internal/dict"
	"tablehound/internal/minhash"
)

// referenceIndex is the index this package had before the flat band
// tables: one Go map per band from bucket hash to the keys in insertion
// order, hashed with the standard library's FNV-1a. It is the oracle
// for which keys a query returns and in which order.
type referenceIndex struct {
	bands, rows int
	tables      []map[uint64][]string
}

func newReference(bands, rows int) *referenceIndex {
	t := make([]map[uint64][]string, bands)
	for i := range t {
		t[i] = make(map[uint64][]string)
	}
	return &referenceIndex{bands: bands, rows: rows, tables: t}
}

func referenceBucket(band []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range band {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (ix *referenceIndex) add(key string, sig minhash.Signature) {
	for b := 0; b < ix.bands; b++ {
		h := referenceBucket(sig[b*ix.rows : (b+1)*ix.rows])
		ix.tables[b][h] = append(ix.tables[b][h], key)
	}
}

func (ix *referenceIndex) queryBands(sig minhash.Signature, n int) []string {
	if n > ix.bands {
		n = ix.bands
	}
	if len(sig) < n*ix.rows || n <= 0 {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for b := 0; b < n; b++ {
		h := referenceBucket(sig[b*ix.rows : (b+1)*ix.rows])
		for _, k := range ix.tables[b][h] {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// crowdedSignature draws every hash from a pool of `pool` values, so
// signatures share whole bands — and with them buckets — by chance;
// pool 0 draws from the full 64 bits.
func crowdedSignature(rng *rand.Rand, k, pool int) minhash.Signature {
	sig := make(minhash.Signature, k)
	for i := range sig {
		if pool == 0 {
			sig[i] = rng.Uint64()
		} else {
			sig[i] = uint64(rng.Intn(pool))
		}
	}
	return sig
}

// TestQueryMatchesReference holds the flat tables to the map index: the
// same keys in the same order for every band prefix, over buckets that
// hold one key, many keys, duplicated signatures, and directories
// crowded enough to probe.
func TestQueryMatchesReference(t *testing.T) {
	const k = 128
	shapes := [][2]int{{128, 1}, {42, 3}, {8, 16}, {1, 128}}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, shape := range shapes {
			bands, rows := shape[0], shape[1]
			ix, ref := New(bands, rows), newReference(bands, rows)
			n := rng.Intn(300)
			pool := []int{0, 2, 3, 50}[rng.Intn(4)]
			if rows > 3 && pool > 3 {
				pool = 2 // wide bands only share buckets over tiny pools
			}
			keys := make([]string, n)
			sigs := make([]minhash.Signature, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%03d", i)
				if i > 0 && rng.Intn(4) == 0 {
					sigs[i] = sigs[rng.Intn(i)] // an exact duplicate
				} else {
					sigs[i] = crowdedSignature(rng, k, pool)
				}
				if err := ix.Add(sigs[i]); err != nil {
					t.Fatal(err)
				}
				ref.add(keys[i], sigs[i])
			}
			ix.Build()
			var seen Seen
			var buf []int32
			for trial := 0; trial < 30; trial++ {
				sig := crowdedSignature(rng, k, pool)
				if n > 0 && trial%3 == 0 {
					sig = sigs[rng.Intn(n)]
				}
				for _, nb := range []int{bands, 1 + rng.Intn(bands), 0, bands + 7} {
					seen.Reset(ix.Len())
					buf = ix.Query(buf[:0], sig, nb, &seen)
					var got []string
					for _, o := range buf {
						got = append(got, keys[o])
					}
					if want := ref.queryBands(sig, nb); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d (%d bands x %d rows, n=%d, pool=%d) first %d bands:\n got %v\nwant %v",
							seed, bands, rows, n, pool, nb, got, want)
					}
				}
			}
		}
	}
}

// TestBucketIsFNV1a pins the inlined hash to hash/fnv over the same
// little-endian bytes: bucket collisions are exactly the old index's.
func TestBucketIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		band := crowdedSignature(rng, rng.Intn(20), 0)
		if got, want := bucket(band), referenceBucket(band); got != want {
			t.Fatalf("bucket(%v) = %#x, want %#x", band, got, want)
		}
	}
}

// TestSeenAcrossEpochWrap checks that stamps left before the uint32
// epoch wraps do not read as members after it.
func TestSeenAcrossEpochWrap(t *testing.T) {
	var s Seen
	s.Reset(4)
	s.epoch = ^uint32(0)
	s.stamp[2] = 1 // what the first Reset's epoch would have left
	if !s.Add(1) || s.Add(1) {
		t.Fatal("Add did not report first insertion exactly once")
	}
	s.Reset(4) // wraps to epoch 1
	if s.epoch != 1 {
		t.Fatalf("epoch = %d after wrapping, want 1", s.epoch)
	}
	for i := int32(0); i < 4; i++ {
		if !s.Add(i) {
			t.Errorf("member %d survived the wrap", i)
		}
	}
	s.Reset(9) // grows
	if !s.Add(8) || !s.Add(2) {
		t.Error("grown set not empty")
	}
}

// TestConcurrentQueries shares one built index among 8 goroutines, each
// with its own Seen and buffer (run with -race).
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := New(16, 4)
	sigs := make([]minhash.Signature, 200)
	for i := range sigs {
		sigs[i] = crowdedSignature(rng, 64, 3)
		if err := ix.Add(sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ix.Build()
	want := make([][]int32, len(sigs))
	for i, sig := range sigs {
		want[i] = query(ix, sig, 16)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen Seen
			var buf []int32
			for i, sig := range sigs {
				seen.Reset(ix.Len())
				if buf = ix.Query(buf[:0], sig, 16, &seen); !slices.Equal(buf, want[i]) {
					t.Errorf("query %d: got %v, want %v", i, buf, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentFirstQuery races 8 goroutines to the first Query of one
// frozen index: the band tables are built once, and every goroutine
// gets the answers of an index a single goroutine built. A second build
// would allocate its tables again, so the race may allocate at most
// half a build beyond the one and the goroutines' own queries (run
// with -race).
func TestConcurrentFirstQuery(t *testing.T) {
	const bands, rows, n, goroutines = 32, 4, 2000, 8
	rng := rand.New(rand.NewSource(11))
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		sigs[i] = crowdedSignature(rng, bands*rows, 50)
	}
	frozen := func() *Index {
		ix := New(bands, rows)
		for _, sig := range sigs {
			if err := ix.Add(sig); err != nil {
				t.Fatal(err)
			}
		}
		ix.Build()
		return ix
	}
	probes := sigs[:50]
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	single := frozen()
	if f := single.Footprint(); f != (dict.Footprint{}) {
		t.Fatalf("frozen index reports %+v before any query, want nothing built", f)
	}
	want := make([][]int32, len(probes))
	first := allocated(func() {
		for i, sig := range probes {
			want[i] = query(single, sig, bands)
		}
	})
	queries := allocated(func() {
		for _, sig := range probes {
			query(single, sig, bands)
		}
	})
	build := first - queries

	ix := frozen()
	got := make([][][]int32, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	raced := allocated(func() {
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				for _, sig := range probes {
					got[g] = append(got[g], query(ix, sig, bands))
				}
			}()
		}
		start.Done()
		wg.Wait()
	})
	if budget := build*3/2 + goroutines*queries; raced > budget {
		t.Errorf("%d racing first queries allocated %d B, over %d B (one build %d B, one goroutine's queries %d B): the tables were built more than once",
			goroutines, raced, budget, build, queries)
	}
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d: answers differ from a single-goroutine build's", g)
		}
	}
	if !reflect.DeepEqual(ix.tables, single.tables) {
		t.Error("band tables differ from a single-goroutine build's")
	}
	if ix.Footprint() != single.Footprint() || ix.Footprint().Count != bands*n {
		t.Errorf("footprint %+v, single build %+v, want %d entries", ix.Footprint(), single.Footprint(), bands*n)
	}
}
