package union

import (
	"reflect"
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

// checkTUSHoldsIDs fails unless no column of tus keeps its values as
// strings and the universe is the number of distinct values across the
// columns.
func checkTUSHoldsIDs(t *testing.T, what string, tus *TUS) {
	t.Helper()
	distinct := make(map[string]bool)
	for _, id := range tus.ids {
		for _, c := range tus.tables[id].cols {
			if c.values != nil {
				t.Fatalf("%s: column %s.%s keeps %d values as strings", what, id, c.name, len(c.values))
			}
			for _, v := range tus.dict.Decode(c.ids) {
				distinct[v] = true
			}
		}
	}
	if len(distinct) == 0 || tus.univ != len(distinct) {
		t.Fatalf("%s: universe %d, the columns hold %d distinct values", what, tus.univ, len(distinct))
	}
}

// TestUnionEnginesHoldNoValueStrings checks that D3L and TUS keep
// column values and words only as IDs on every path an engine comes
// from: built, decoded from its snapshot section, assembled from parts
// sent through the delta codec, and staged-only after Parts — with a
// dictionary of their own and with the lake's.
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
		staged, err := NewD3L(model, values)
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range lake.Tables {
			staged.AddTable(tbl)
		}
		e := new(snap.Encoder)
		AppendD3LParts(e, staged.Parts())
		parts, err := DecodeD3LParts(snap.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fromParts, err := NewD3LFromParts(model, staged.dict, parts, lookup)
		if err != nil {
			t.Fatal(err)
		}
		e = new(snap.Encoder)
		built.AppendSnapshot(e)
		decoded, err := DecodeD3LSnapshot(snap.NewDecoder(e.Bytes()), model, values, lookup)
		if err != nil {
			t.Fatal(err)
		}
		// A Build after more staging re-encodes what the first encoded.
		half := len(lake.Tables) / 2
		rebuilt := builtD3LOver(t, model, values, lake.Tables[:half])
		for _, tbl := range lake.Tables[half:] {
			rebuilt.AddTable(tbl)
		}
		rebuilt.Build()
		if got, want := rebuilt.Parts(), built.Parts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: D3L built in two steps has other parts than one built at once", regime)
		}
		for _, eng := range []struct {
			what string
			d    *D3L
		}{{"built", built}, {"staged after Parts", staged}, {"from parts", fromParts}, {"decoded", decoded}, {"rebuilt", rebuilt}} {
			checkD3LHoldsIDs(t, regime+", D3L "+eng.what, eng.d)
		}

		cfg := TUSConfig{Model: model, Dict: values}
		newTUS := func() *TUS {
			tus, err := NewTUS(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tus.AddTables(lake.Tables, 2)
			return tus
		}
		tus := newTUS()
		if err := tus.Build(); err != nil {
			t.Fatal(err)
		}
		stagedTUS := newTUS()
		e = new(snap.Encoder)
		AppendTUSParts(e, stagedTUS.Parts())
		tparts, err := DecodeTUSParts(snap.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		tusFromParts, err := NewTUSFromParts(TUSConfig{Model: model, Dict: stagedTUS.dict}, tparts, nil, nil, lookup)
		if err != nil {
			t.Fatal(err)
		}
		e = new(snap.Encoder)
		tus.AppendSnapshot(e, values)
		tusDecoded, err := DecodeTUSSnapshot(snap.NewDecoder(e.Bytes()), cfg, lookup)
		if err != nil {
			t.Fatal(err)
		}
		rebuiltTUS, err := NewTUS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rebuiltTUS.AddTables(lake.Tables[:half], 2)
		if err := rebuiltTUS.Build(); err != nil {
			t.Fatal(err)
		}
		rebuiltTUS.AddTables(lake.Tables[half:], 2)
		if err := rebuiltTUS.Build(); err != nil {
			t.Fatal(err)
		}
		if got, want := rebuiltTUS.Parts(), tus.Parts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TUS built in two steps has other parts than one built at once", regime)
		}
		for _, eng := range []struct {
			what string
			tus  *TUS
		}{{"built", tus}, {"from parts", tusFromParts}, {"decoded", tusDecoded}, {"rebuilt", rebuiltTUS}} {
			checkTUSHoldsIDs(t, regime+", TUS "+eng.what, eng.tus)
		}
		// A staged engine counts its universe only when built; Parts
		// alone must still drop the strings.
		for _, id := range stagedTUS.ids {
			for _, c := range stagedTUS.tables[id].cols {
				if c.values != nil {
					t.Fatalf("%s, TUS staged after Parts: column %s.%s keeps its values as strings", regime, id, c.name)
				}
			}
		}
	}
}
