package union

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/tokenize"
)

// TestTUSAddTablesMatchesSequential checks the batch loader's parity
// contract: AddTables at any worker count must produce the same engine
// state — and therefore the same search results — as the historical
// one-at-a-time AddTable loop.
func TestTUSAddTablesMatchesSequential(t *testing.T) {
	lake := datagen.Generate(datagen.Config{
		Seed:              31,
		NumDomains:        10,
		DomainSize:        80,
		NumTemplates:      4,
		TablesPerTemplate: 4,
	})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 64, Seed: 3})
	kb := lake.BuildKB(0.9)

	newEngine := func() *TUS {
		tus, err := NewTUS(TUSConfig{Model: model, KB: kb})
		if err != nil {
			t.Fatal(err)
		}
		return tus
	}
	seq := newEngine()
	for _, tbl := range lake.Tables {
		seq.AddTable(tbl)
	}
	if err := seq.Build(); err != nil {
		t.Fatal(err)
	}
	query := lake.Tables[0]
	want, err := seq.Search(context.Background(), query, 5, EnsembleMeasure)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		par := newEngine()
		par.AddTables(lake.Tables, workers)
		if par.NumTables() != seq.NumTables() {
			t.Fatalf("workers=%d: staged %d tables, want %d", workers, par.NumTables(), seq.NumTables())
		}
		if err := par.Build(); err != nil {
			t.Fatal(err)
		}
		got, err := par.Search(context.Background(), query, 5, EnsembleMeasure)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestTUSStagedPartsEqualBuilt pins what delta analysis relies on: the
// parts of a staged engine (never built, tables added out of order)
// equal those of the same engine after Build — with the lake dictionary
// the columns encode in, and with the self-built fallback.
func TestTUSStagedPartsEqualBuilt(t *testing.T) {
	lake := datagen.Generate(datagen.Config{Seed: 31, NumDomains: 10, DomainSize: 80, NumTemplates: 3, TablesPerTemplate: 3})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 32, Seed: 3})
	db := dict.NewBuilder()
	db.Add("a value no table holds")
	for _, tbl := range lake.Tables {
		for _, c := range tbl.Columns {
			db.Add(tokenize.NormalizeSet(c.Values)...)
		}
	}
	reversed := slices.Clone(lake.Tables)
	slices.Reverse(reversed)
	for _, d := range []*dict.Dict{db.Build(), nil} {
		cfg := TUSConfig{Model: model, KB: lake.BuildKB(0.9), Dict: d}
		staged, err := NewTUS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		staged.AddTables(reversed, 2)
		built, err := NewTUS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		built.AddTables(lake.Tables, 1)
		if err := built.Build(); err != nil {
			t.Fatal(err)
		}
		got, want := staged.Parts(), built.Parts()
		if len(want) != len(lake.Tables) || !reflect.DeepEqual(got, want) {
			t.Errorf("lake dictionary %v: staged parts (%d tables) differ from built parts (%d tables)", d != nil, len(got), len(want))
		}
	}
}
