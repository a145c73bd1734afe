package hnsw

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tablehound/internal/embedding"
	"tablehound/internal/snap"
)

// productionConfigs are the two graphs the system builds: TUS's
// natural-language index and Starmie's column index.
var productionConfigs = []Config{
	{M: 12, EfConstruction: 80, Seed: 11},
	{M: 12, EfConstruction: 100, Seed: 23},
}

// oracleVectors returns n clustered unit vectors; with dups every
// vector appears three times (shuffled), as identical columns do in a
// datagen lake, so distances tie exactly.
func oracleVectors(seed int64, n int, dups bool) []embedding.Vector {
	rng := rand.New(rand.NewSource(seed))
	if !dups {
		return clustered(rng, n, 6, 24)
	}
	base := clustered(rng, (n+2)/3, 6, 24)
	out := make([]embedding.Vector, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func snapshotBytes(g *Graph) []byte {
	e := new(snap.Encoder)
	g.AppendSnapshot(e)
	return e.Bytes()
}

// TestKernelMatchesReference holds the scratch-based kernel to the
// container/heap one: same snapshot bytes after the same inserts, same
// Search answers (keys, scores and tie order) for every k.
func TestKernelMatchesReference(t *testing.T) {
	const n = 240
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		for _, cfg := range productionConfigs {
			for _, dups := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/ef%d/dups=%v", seed, cfg.EfConstruction, dups)
				vecs := oracleVectors(int64(seed), n, dups)
				g, ref := New(cfg), newReference(cfg)
				for i, v := range vecs {
					key := fmt.Sprintf("v%05d", i)
					if err := g.Add(key, v); err != nil {
						t.Fatal(err)
					}
					if err := ref.Add(key, v); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(snapshotBytes(g), snapshotBytes(ref.graph())) {
					t.Fatalf("%s: snapshot bytes differ from the reference kernel", name)
				}
				rng := rand.New(rand.NewSource(int64(seed) + 1000))
				for qi := 0; qi < 12; qi++ {
					q := randUnit(rng, 24)
					if qi%2 == 0 { // an indexed vector: ties at distance 0 under dups
						q = vecs[rng.Intn(n)]
					}
					for _, k := range []int{1, 8, 10, n + 5} {
						for _, ef := range []int{60, 64} {
							got, want := g.Search(q, k, ef), ref.Search(q, k, ef)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: Search(q%d, k=%d, ef=%d)\n got %v\nwant %v", name, qi, k, ef, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestSearchAllocations pins Search to the one allocation its answer
// needs, however large the graph: the visited set, both heaps and the
// sorted beam live in pooled scratch.
func TestSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{200, 2000} {
		g := buildGraph(t, clustered(rng, n, 8, 24), productionConfigs[1])
		q := randUnit(rng, 24)
		g.Search(q, 8, 64) // warm the pool
		if allocs := testing.AllocsPerRun(50, func() { g.Search(q, 8, 64) }); allocs > 1 {
			t.Errorf("n=%d: Search allocates %.0f times per call, want 1", n, allocs)
		}
	}
}

// TestScratchEpochWrap drives a scratch across the uint32 epoch wrap:
// stale stamps must not read as visited.
func TestScratchEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := buildGraph(t, clustered(rng, 300, 4, 16), Config{M: 8, EfConstruction: 40, Seed: 4})
	q := randUnit(rng, 16)
	want := slices.Clone(g.searchLayer(getScratch(), q, g.entry, 50, 0))

	s := getScratch()
	s.beginVisit(len(g.nodes))
	for i := range s.visited {
		s.visited[i] = 1 // what a search at epoch 1 would have left
	}
	s.epoch = ^uint32(0)
	for i := 0; i < 3; i++ { // epochs 1 (wrapped from 2^32-1), 2, 3
		if got := g.searchLayer(s, q, g.entry, 50, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("search %d across the epoch wrap: got %v, want %v", i, got, want)
		}
	}
	if s.epoch != 3 {
		t.Fatalf("epoch = %d after wrapping, want 3", s.epoch)
	}
}

// TestDecodeRejectsForgedCounts forges each count a decoder would
// otherwise trust: a CRC-valid section must come back ErrCorrupt, not
// as a huge allocation or a Search that descends 2^32 layers.
func TestDecodeRejectsForgedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := buildGraph(t, clustered(rng, 40, 3, 8), Config{M: 4, EfConstruction: 20, Seed: 6})
	good := snapshotBytes(g)
	if _, err := DecodeSnapshot(snap.NewDecoder(good)); err != nil {
		t.Fatalf("unforged snapshot: %v", err)
	}
	// Layout: M u32 | ef u32 | seed i64 | entry i64 | maxLevel u32 | numNodes u32 | nodes…
	// Node 0: key (u32 len + bytes) | vec (u32 len + 4·dim) | levels u32 | …
	const (
		offEntry    = 16
		offMaxLevel = 24
		offNumNodes = 28
	)
	offLevels0 := 32 + 4 + len("v00000") + 4 + 4*8
	put32 := func(b []byte, off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	cases := []struct {
		name  string
		forge func(b []byte)
	}{
		{"numNodes huge", func(b []byte) { put32(b, offNumNodes, 0xFFFFFFFF) }},
		{"numNodes beyond the bytes left", func(b []byte) { put32(b, offNumNodes, uint32(len(good))) }},
		{"levels huge", func(b []byte) { put32(b, offLevels0, 0xFFFFFFFF) }},
		{"levels beyond the bytes left", func(b []byte) { put32(b, offLevels0, uint32(len(good))) }},
		{"maxLevel huge", func(b []byte) { put32(b, offMaxLevel, 0xFFFFFFFF) }},
		{"maxLevel one above the entry's top", func(b []byte) { put32(b, offMaxLevel, uint32(g.maxLevel+1)) }},
		{"maxLevel one below the entry's top", func(b []byte) { put32(b, offMaxLevel, uint32(g.maxLevel-1)) }},
		{"entry moved to a lower node", func(b []byte) {
			for i := range g.nodes {
				if len(g.nodes[i].neighbors) != g.maxLevel+1 {
					put32(b, offEntry, uint32(i))
					return
				}
			}
			t.Fatal("every node reaches the top level")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.forge(b)
			if _, err := DecodeSnapshot(snap.NewDecoder(b)); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("DecodeSnapshot = %v, want ErrCorrupt", err)
			}
		})
	}
}

func BenchmarkHNSWAdd(b *testing.B) {
	vecs := oracleVectors(1, 2000, true)
	keys := make([]string, len(vecs))
	for i := range keys {
		keys[i] = fmt.Sprintf("v%05d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(productionConfigs[1])
		for j, v := range vecs {
			if err := g.Add(keys[j], v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/add")
}

var benchSink []Result

func BenchmarkHNSWSearch(b *testing.B) {
	vecs := oracleVectors(1, 2000, true)
	g := buildGraph(b, vecs, productionConfigs[1])
	rng := rand.New(rand.NewSource(2))
	queries := make([]embedding.Vector, 64)
	for i := range queries {
		queries[i] = randUnit(rng, 24)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = g.Search(queries[i%len(queries)], 8, 64)
	}
}
