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
// it grows a graph decoded on its own, whose vectors are copies. A
// snapshot whose node vector is not its column's fails to decode.
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
	decoded, err := DecodeTUSSnapshot(snap.NewDecoder(encode(built)), TUSConfig{Model: model}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	assertNLAliasesColumns(t, "decoded", decoded)

	var ge snap.Encoder
	built.nlIndex.AppendSnapshot(&ge)
	copied, err := hnsw.DecodeSnapshot(snap.NewDecoder(ge.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := NewTUSFromParts(TUSConfig{Model: model, Dict: decoded.dict}, decoded.Parts(), copied, nil, lookup)
	if err != nil {
		t.Fatal(err)
	}
	assertNLAliasesColumns(t, "from parts", merged)

	// A graph over the same keys whose first node's vector is nudged.
	keys := built.nlIndex.Keys()
	forged := hnsw.New(nlGraphConfig)
	for i, key := range keys {
		v, _ := built.nlIndex.Vector(key)
		v = slices.Clone(v)
		if i == 0 {
			v[0] += 1e-3
		}
		if err := forged.Add(key, v); err != nil {
			t.Fatal(err)
		}
	}
	bad := *built
	bad.nlIndex = forged
	if _, err := DecodeTUSSnapshot(snap.NewDecoder(encode(&bad)), TUSConfig{Model: model}, lookup); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("node vector off its column's: err = %v, want snap.ErrCorrupt", err)
	}
}
