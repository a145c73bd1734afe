package hnsw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tablehound/internal/embedding"
	"tablehound/internal/snap"
)

// TestDecodedGraphKeepsGrowing is the property a merge that extends a
// loaded graph rests on: build over keys[:n], save, decode, insert
// keys[n:] — the graph saves the bytes inserting every key into one
// graph saves, at every split.
func TestDecodedGraphKeepsGrowing(t *testing.T) {
	const total = 120
	for _, cfg := range productionConfigs {
		for _, dups := range []bool{false, true} {
			vecs := oracleVectors(3, total, dups)
			keys := make([]string, total)
			for i := range keys {
				keys[i] = fmt.Sprintf("v%05d", i)
			}
			add := func(t *testing.T, g *Graph, lo, hi int) {
				t.Helper()
				for i := lo; i < hi; i++ {
					if err := g.Add(keys[i], vecs[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			whole := New(cfg)
			add(t, whole, 0, total)
			want := snapshotBytes(whole)
			for _, n := range []int{0, 1, 37, total - 1, total} {
				t.Run(fmt.Sprintf("ef%d/dups=%v/split%d", cfg.EfConstruction, dups, n), func(t *testing.T) {
					prefix := New(cfg)
					add(t, prefix, 0, n)

					g, err := DecodeSnapshotShared(snap.NewDecoder(snapshotBytes(prefix)), func(i int, _ string) embedding.Vector { return vecs[i] })
					if err != nil {
						t.Fatal(err)
					}
					add(t, g, n, total)
					if got := snapshotBytes(g); string(got) != string(want) {
						t.Errorf("grown graph saves other bytes than one built at once")
					}
					if got := g.Keys(); len(got) != total || got[0] != keys[0] || got[total-1] != keys[total-1] {
						t.Errorf("Keys() = %d keys from %q, want insertion order", len(got), got[0])
					}
				})
			}
		}
	}
}

// TestDecodeRejectsLinkAboveTop forges a link on a level the linked
// node does not reach. Search never follows it, but an Add into the
// decoded graph would link back on that level and index past the
// node's levels, so the decoder refuses it.
func TestDecodeRejectsLinkAboveTop(t *testing.T) {
	vecs := oracleVectors(4, 80, false)
	g := New(Config{M: 4, EfConstruction: 20, Seed: 4})
	for i, v := range vecs {
		if err := g.Add(fmt.Sprintf("v%05d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	high, low := -1, -1
	for i := range g.nodes {
		switch {
		case len(g.nodes[i].neighbors) >= 2 && high < 0:
			high = i
		case len(g.nodes[i].neighbors) == 1 && low < 0:
			low = i
		}
	}
	if high < 0 || low < 0 {
		t.Fatal("graph has no node above level 0 or none only on it")
	}
	g.nodes[high].neighbors[1] = append(g.nodes[high].neighbors[1], int32(low))
	if _, err := decodeWith(g, snapshotBytes(g)); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("DecodeSnapshotShared = %v, want ErrCorrupt", err)
	}
}

// TestRebindVecsChecksBits rebinds a graph onto copies of its vectors:
// each node then holds its copy, and a copy with one bit off, or a key
// the lookup lacks, fails the rebind.
func TestRebindVecsChecksBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(Config{M: 4, EfConstruction: 16, Seed: 1})
	copies := make(map[string]embedding.Vector)
	for i := range 20 {
		key := fmt.Sprintf("k%02d", i)
		v := randUnit(rng, 8)
		if err := g.Add(key, v); err != nil {
			t.Fatal(err)
		}
		copies[key] = append(embedding.Vector(nil), v...)
	}
	lookup := func(key string) (embedding.Vector, bool) {
		v, ok := copies[key]
		return v, ok
	}
	if err := g.RebindVecs(lookup); err != nil {
		t.Fatal(err)
	}
	for key, c := range copies {
		if v, _ := g.Vector(key); &v[0] != &c[0] {
			t.Fatalf("%s: node does not hold the vector it was rebound onto", key)
		}
	}
	copies["k07"] = append(embedding.Vector(nil), copies["k07"]...)
	copies["k07"][3] = math.Nextafter32(copies["k07"][3], 2)
	if err := g.RebindVecs(lookup); err == nil {
		t.Error("rebind onto a vector one ulp off succeeded")
	}
	delete(copies, "k07")
	if err := g.RebindVecs(lookup); err == nil {
		t.Error("rebind with a key missing succeeded")
	}
}
