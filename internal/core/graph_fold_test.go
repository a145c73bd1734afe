package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/lake"
	"tablehound/internal/snap"
	"tablehound/internal/table"
	"tablehound/internal/vecstore"
)

// foldLake is a 16-table lake split into a base of every other table
// and a pool of the rest, so tables a delta adds take IDs between the
// base's.
func foldLake(t *testing.T) (gen *datagen.Lake, opts Options, base, pool []*table.Table) {
	t.Helper()
	gen = datagen.Generate(datagen.Config{Seed: 11, NumTemplates: 4, TablesPerTemplate: 4})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	for i, tb := range all {
		if i%2 == 0 {
			base = append(base, tb)
		} else {
			pool = append(pool, tb)
		}
	}
	return gen, Options{KB: gen.BuildKB(0.8), Seed: 3}, base, pool
}

// writeBase builds a system over tables and saves it under dir.
func writeBase(t *testing.T, dir string, tables []*table.Table, opts Options) (string, *System) {
	t.Helper()
	cat := lake.NewCatalog()
	if err := cat.AddBatch(tables); err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "base.snap")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path, sys
}

// mutation is one delta's tables to add and table IDs to remove.
type mutation struct {
	add    []*table.Table
	remove []string
}

// writeDelta builds m as a delta onto basePath plus chain and saves it
// under dir as name.
func writeDelta(t *testing.T, dir, name, basePath string, chain []string, m mutation) (string, *Delta) {
	t.Helper()
	d, err := BuildDelta(basePath, chain, m.add, m.remove, Options{})
	if err != nil {
		t.Fatalf("BuildDelta %s: %v", name, err)
	}
	path := filepath.Join(dir, name)
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// TestGraphFoldCompactsAnywhere is the merge's byte contract: each
// step of the graph fold is a function of the graphs so far and one
// delta, so a chain, a compaction of its first delta followed by the
// second, and a compaction of the whole chain save the same bytes —
// whether the chain only adds, removes in its first or its second
// delta, or replaces a table.
func TestGraphFoldCompactsAnywhere(t *testing.T) {
	_, opts, baseTables, pool := foldLake(t)
	for _, tc := range []struct {
		name   string
		d1, d2 mutation
	}{
		{"add-only", mutation{add: pool[0:2]}, mutation{add: pool[2:4]}},
		{"remove-first", mutation{add: pool[0:2], remove: []string{baseTables[1].ID}}, mutation{add: pool[2:4]}},
		{"remove-second", mutation{add: pool[0:2]}, mutation{remove: []string{baseTables[1].ID, pool[0].ID}}},
		{"replace", mutation{add: pool[0:2]}, mutation{add: []*table.Table{mutateTable(t, baseTables[2])}, remove: []string{baseTables[2].ID}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			basePath, _ := writeBase(t, dir, baseTables, opts)
			p1, _ := writeDelta(t, dir, "d1.thdb", basePath, nil, tc.d1)
			p2, _ := writeDelta(t, dir, "d2.thdb", basePath, []string{p1}, tc.d2)

			chain, err := LoadChainFiles(basePath, []string{p1, p2}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := saved(t, chain)

			prefixPath := filepath.Join(dir, "prefix.snap")
			if _, err := CompactFiles(basePath, []string{p1}, prefixPath, Options{}); err != nil {
				t.Fatal(err)
			}
			rest, _ := writeDelta(t, dir, "d2-on-prefix.thdb", prefixPath, nil, tc.d2)
			onPrefix, err := LoadChainFiles(prefixPath, []string{rest}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := saved(t, onPrefix); !bytes.Equal(got, want) {
				t.Errorf("compact(base, d1) + d2 saves %d bytes, the chain %d: not byte-identical", len(got), len(want))
			}

			whole, err := CompactFiles(basePath, []string{p1, p2}, filepath.Join(dir, "whole.snap"), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := saved(t, whole); !bytes.Equal(got, want) {
				t.Errorf("compact(base, d1, d2) saves %d bytes, the chain %d: not byte-identical", len(got), len(want))
			}
		})
	}
}

// snapshotSections splits snapshot bytes into each section's payload,
// by section ID, and the vector blob after the frames.
func snapshotSections(t *testing.T, b []byte) (map[uint16][]byte, []byte) {
	t.Helper()
	out := make(map[uint16][]byte, secVecs)
	pos := snapHeaderLen
	for sid := uint16(1); sid <= secVecs; sid++ {
		if got := binary.LittleEndian.Uint16(b[pos:]); got != sid {
			t.Fatalf("section %d at offset %d, want %d", got, pos, sid)
		}
		n := int(binary.LittleEndian.Uint64(b[pos+2:]))
		out[sid] = b[pos+10 : pos+10+n]
		pos += 10 + n + 4
	}
	return out, b[pos+vecstore.PadTo(int64(pos)):]
}

// TestAddOnlyChainGrowsGraphs merges an add-only chain whose table IDs
// interleave with the base's. The merge grows the base's two graphs by
// each delta's columns only — so they equal the base's decoded graphs
// with each delta's columns inserted in fresh-build order, and never
// a base column inserted again — and every other section is the one a
// fresh build writes, but for the Starmie rows of the vector blob and
// the blob's CRC. Its answers are the fresh build's.
func TestAddOnlyChainGrowsGraphs(t *testing.T) {
	gen, opts, baseTables, pool := foldLake(t)
	dir := t.TempDir()
	basePath, base := writeBase(t, dir, baseTables, opts)
	p1, d1 := writeDelta(t, dir, "d1.thdb", basePath, nil, mutation{add: pool[:4]})
	p2, d2 := writeDelta(t, dir, "d2.thdb", basePath, []string{p1}, mutation{add: pool[4:]})
	merged, err := LoadChainFiles(basePath, []string{p1, p2}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := LoadFile(basePath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	starmieRef, tusRef := ref.Starmie.Graph(), ref.TUS.NLGraph()
	for _, d := range []*Delta{d1, d2} {
		var keys []string
		vecs := make(map[string]embedding.Vector)
		for _, p := range d.Starmie {
			for i, k := range p.Keys {
				keys = append(keys, k)
				vecs[k] = p.Vecs[i]
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := starmieRef.Add(k, vecs[k]); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range d.TUS { // sorted by table ID
			for _, c := range p.Cols {
				if err := tusRef.Add(table.ColumnKey(p.ID, c.Name), c.Vec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	graphBytes := func(g *hnsw.Graph) []byte {
		e := new(snap.Encoder)
		g.AppendSnapshotShared(e)
		return e.Bytes()
	}
	if !bytes.Equal(graphBytes(merged.Starmie.Graph()), graphBytes(starmieRef)) {
		t.Error("merged Starmie graph is not the base's grown by each delta's columns")
	}
	if !bytes.Equal(graphBytes(merged.TUS.NLGraph()), graphBytes(tusRef)) {
		t.Error("merged TUS graph is not the base's grown by each delta's columns")
	}

	fresh := freshSystem(t, base, append(append([]*table.Table(nil), baseTables...), pool...))
	got, gotBlob := snapshotSections(t, saved(t, merged))
	want, wantBlob := snapshotSections(t, saved(t, fresh))
	for sid := uint16(1); sid <= secVecs; sid++ {
		equal := bytes.Equal(got[sid], want[sid])
		switch sid {
		case secStarmie:
			// The added keys sort between the base's, so a merge that
			// kept the sorted order would have rebuilt the graph.
			if equal {
				t.Error("Starmie section equals a fresh build's: the merge rebuilt its graph")
			}
		case secTUS:
		case secVecs:
			// The vector directory carries the blob's CRC (bytes 28..31,
			// after the format, dim, count and blob length); the rest of
			// it is the fresh build's.
			g, w := bytes.Clone(got[sid]), bytes.Clone(want[sid])
			clear(g[28:32])
			clear(w[28:32])
			if !bytes.Equal(g, w) {
				t.Error("vector directory differs from a fresh build's beyond the blob CRC")
			}
		default:
			if !equal {
				t.Errorf("section %d differs from a fresh build's", sid)
			}
		}
	}
	if bytes.Equal(gotBlob, wantBlob) {
		t.Error("vector blob equals a fresh build's: Starmie rows did not follow the grown graph")
	}

	queryTables := []*table.Table{baseTables[0], pool[0], pool[len(pool)-1], baseTables[len(baseTables)-1]}
	assertSurfaceParity(t, "merged-vs-fresh", merged, fresh, gen, queryTables)
	for _, q := range queryTables {
		name := fmt.Sprintf("starmie-exact-%s", q.ID)
		gs, _ := merged.Starmie.SearchTables(context.Background(), q, 5, 64, true)
		ws, _ := fresh.Starmie.SearchTables(context.Background(), q, 5, 64, true)
		if fmt.Sprint(gs) != fmt.Sprint(ws) {
			t.Errorf("%s: got %v, want %v", name, gs, ws)
		}
	}
}
