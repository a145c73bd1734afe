package union

import (
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// tablesByID resolves table IDs against tables, as a catalog does.
func tablesByID(tables []*table.Table) func(string) *table.Table {
	byID := make(map[string]*table.Table, len(tables))
	for _, tbl := range tables {
		byID[tbl.ID] = tbl
	}
	return func(id string) *table.Table { return byID[id] }
}

// checkD3LHoldsIDs fails unless every column of d holds its values and
// words only as IDs, the word IDs strictly ascending positions in a
// strictly ascending word list and the value IDs a set over the
// engine's dictionary.
func checkD3LHoldsIDs(t *testing.T, what string, d *D3L) {
	t.Helper()
	for i := 1; i < len(d.words); i++ {
		if d.words[i-1] >= d.words[i] {
			t.Fatalf("%s: word list not strictly ascending at %q", what, d.words[i])
		}
	}
	cols, values := 0, 0
	for _, id := range d.ids {
		for _, c := range d.tables[id].cols {
			if c.distinct != nil || c.words != nil {
				t.Fatalf("%s: column %d of %s keeps %d values and %d words as strings", what, c.colIdx, id, len(c.distinct), len(c.words))
			}
			if err := c.valueIDs.Check(d.dict.Size()); err != nil {
				t.Fatalf("%s: column %d of %s: values: %v", what, c.colIdx, id, err)
			}
			if err := dict.IDSet(c.wordIDs).Check(len(d.words)); err != nil {
				t.Fatalf("%s: column %d of %s: words: %v", what, c.colIdx, id, err)
			}
			cols++
			values += len(c.valueIDs)
		}
	}
	if cols == 0 || values == 0 || len(d.words) == 0 {
		t.Fatalf("%s: %d columns, %d values, %d words; the check saw nothing", what, cols, values, len(d.words))
	}
}

// checkTUSUniverse fails unless tus's universe is the number of
// distinct values across its columns' ID sets.
func checkTUSUniverse(t *testing.T, what string, tus *TUS) {
	t.Helper()
	distinct := make(map[string]bool)
	for _, id := range tus.ids {
		for _, c := range tus.tables[id].cols {
			for _, v := range tus.dict.Decode(c.ids) {
				distinct[v] = true
			}
		}
	}
	if len(distinct) == 0 || tus.univ != len(distinct) {
		t.Fatalf("%s: universe %d, the columns hold %d distinct values", what, tus.univ, len(distinct))
	}
}

// d3lFromCodecParts assembles a D3L engine over tables from a
// builder's parts sent through the delta codec.
func d3lFromCodecParts(t testing.TB, model *embedding.Model, lake *dict.Dict, tables []*table.Table) *D3L {
	t.Helper()
	b, err := NewD3LBuilder(model, lake)
	if err != nil {
		t.Fatal(err)
	}
	b.AddTables(tables, 2)
	values, staged := b.Parts()
	e := new(snap.Encoder)
	AppendD3LParts(e, staged)
	parts, err := DecodeD3LParts(snap.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewD3LFromParts(model, values, parts, tablesByID(tables))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// tusFromCodecParts assembles a TUS engine over tables from a
// builder's parts sent through the delta codec.
func tusFromCodecParts(t testing.TB, cfg TUSConfig, tables []*table.Table) *TUS {
	t.Helper()
	b, err := NewTUSBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.AddTables(tables, 2)
	d, staged := b.Parts()
	e := new(snap.Encoder)
	AppendTUSParts(e, staged)
	parts, err := DecodeTUSParts(snap.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dict = d
	tus, err := NewTUSFromParts(cfg, parts, nil, nil, tablesByID(tables))
	if err != nil {
		t.Fatal(err)
	}
	return tus
}

// TestUnionEnginesHoldNoValueStrings checks that D3L keeps column
// values and words only as IDs on every path an engine comes from:
// built, decoded from its snapshot section, and assembled from parts
// sent through the delta codec — with a dictionary of its own and with
// the lake's; and that TUS, whose columns cannot hold strings, counts
// its universe on each of those paths.
func TestUnionEnginesHoldNoValueStrings(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 3, NumTemplates: 3, TablesPerTemplate: 3})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 16, Seed: 3})
	lookup := tablesByID(lake.Tables)
	for _, values := range []*dict.Dict{nil, valueDict(lake.Tables)} {
		regime := "private dictionary"
		if values != nil {
			regime = "lake dictionary"
		}

		built := builtD3LOver(t, model, values, lake.Tables)
		e := new(snap.Encoder)
		built.AppendSnapshot(e, values)
		decoded, err := loadD3L(e.Bytes(), model, values, lookup)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []struct {
			what string
			d    *D3L
		}{{"built", built}, {"from parts", d3lFromCodecParts(t, model, values, lake.Tables)}, {"decoded", decoded}} {
			checkD3LHoldsIDs(t, regime+", D3L "+eng.what, eng.d)
		}

		cfg := TUSConfig{Model: model, Dict: values}
		tus := buildTUS(t, cfg, lake.Tables)
		e = new(snap.Encoder)
		tus.AppendSnapshot(e, values)
		tusDecoded, err := loadTUS(e.Bytes(), cfg, lookup)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []struct {
			what string
			tus  *TUS
		}{{"built", tus}, {"from parts", tusFromCodecParts(t, cfg, lake.Tables)}, {"decoded", tusDecoded}} {
			checkTUSUniverse(t, regime+", TUS "+eng.what, eng.tus)
		}
	}
}
