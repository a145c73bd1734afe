package union

import (
	"errors"
	"slices"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// assertNLAliasesColumns fails unless every node of t's NL graph holds
// its column's own vector, not a copy of it.
func assertNLAliasesColumns(t *testing.T, name string, tus *TUS) {
	t.Helper()
	nodes := 0
	for _, id := range tus.ids {
		for _, c := range tus.tables[id].cols {
			v, ok := tus.nlIndex.Vector(table.ColumnKey(id, c.name))
			if !ok || len(v) == 0 || &v[0] != &c.vec[0] {
				t.Fatalf("%s: node %s.%s does not alias its column's vector", name, id, c.name)
			}
			nodes++
		}
	}
	if nodes != tus.nlIndex.Len() {
		t.Fatalf("%s: %d columns, %d nodes", name, nodes, tus.nlIndex.Len())
	}
}

// TestTUSGraphSharesColumnVectors checks that the NL graph keeps no
// vectors of its own: a built, a decoded and a parts-assembled engine
// all point each node at its column's vector — the last one also when
// it grows a graph decoded on its own over copies of the vectors. A
// graph whose node vector is not its column's does not assemble, and a
// snapshot whose graph holds a node no column backs fails to decode.
func TestTUSGraphSharesColumnVectors(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 4, NumTemplates: 3, TablesPerTemplate: 3})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 16, Seed: 3})
	built := builtTUS(t, lake, model, false)
	assertNLAliasesColumns(t, "built", built)
	byID := make(map[string]*table.Table, len(lake.Tables))
	for _, tb := range lake.Tables {
		byID[tb.ID] = tb
	}
	lookup := func(id string) *table.Table { return byID[id] }
	encode := func(tus *TUS) []byte {
		var e snap.Encoder
		tus.AppendSnapshot(&e, nil)
		return e.Bytes()
	}
	decoded, err := loadTUS(encode(built), TUSConfig{Model: model}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	assertNLAliasesColumns(t, "decoded", decoded)

	var ge snap.Encoder
	built.nlIndex.AppendSnapshotShared(&ge)
	copied, err := hnsw.DecodeSnapshotShared(snap.NewDecoder(ge.Bytes()), func(_ int, key string) embedding.Vector {
		v, _ := built.nlIndex.Vector(key)
		return slices.Clone(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TUSConfig{Model: model, Dict: decoded.dict}
	merged, err := NewTUSFromParts(cfg, decoded.Parts(), copied, nil, lookup)
	if err != nil {
		t.Fatal(err)
	}
	assertNLAliasesColumns(t, "from parts", merged)

	// Graphs over the same vectors, one with its first node's vector
	// nudged, one with its first node keyed by no column.
	nudged, renamed := hnsw.New(nlGraphConfig), hnsw.New(nlGraphConfig)
	for i, key := range built.nlIndex.Keys() {
		v, _ := built.nlIndex.Vector(key)
		w := slices.Clone(v)
		if i == 0 {
			w[0] += 1e-3
			key = "zz.nocolumn"
		}
		if err := nudged.Add(built.nlIndex.Keys()[i], w); err != nil {
			t.Fatal(err)
		}
		if err := renamed.Add(key, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewTUSFromParts(cfg, decoded.Parts(), nudged, [][]string{}, lookup); err == nil {
		t.Error("node vector off its column's: the engine assembled")
	}
	bad := *built
	bad.nlIndex = renamed
	if _, err := loadTUS(encode(&bad), TUSConfig{Model: model}, lookup); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("node keyed by no column: err = %v, want snap.ErrCorrupt", err)
	}
}
