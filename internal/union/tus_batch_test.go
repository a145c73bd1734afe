package union

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// TestTUSAddTablesMatchesSequential checks the batch loader's parity
// contract: AddTables at any worker count must stage the same parts —
// and so build an engine with the same search results — as adding the
// tables one at a time.
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

	newBuilder := func() *TUSBuilder {
		b, err := NewTUSBuilder(TUSConfig{Model: model, KB: kb})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := newBuilder()
	for _, tbl := range lake.Tables {
		seq.AddTables([]*table.Table{tbl}, 1)
	}
	seqEngine, err := seq.Build()
	if err != nil {
		t.Fatal(err)
	}
	query := lake.Tables[0]
	want, err := seqEngine.Search(context.Background(), query, 5, EnsembleMeasure)
	if err != nil {
		t.Fatal(err)
	}
	_, wantParts := seq.Parts()

	for _, workers := range []int{1, 4} {
		par := newBuilder()
		par.AddTables(lake.Tables, workers)
		if _, got := par.Parts(); !reflect.DeepEqual(got, wantParts) {
			t.Fatalf("workers=%d: staged parts differ from one-at-a-time staging", workers)
		}
		eng, err := par.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Search(context.Background(), query, 5, EnsembleMeasure)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestTUSStagedPartsEqualBuilt pins what delta analysis relies on: a
// builder's parts (tables added out of order) equal those of an engine
// built over the same tables — with the lake dictionary the columns
// encode in, and with the self-built fallback.
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
		staged, err := NewTUSBuilder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		staged.AddTables(reversed, 2)
		built := buildTUS(t, cfg, lake.Tables)
		sd, got := staged.Parts()
		want := built.Parts()
		if len(want) != len(lake.Tables) || !reflect.DeepEqual(got, want) {
			t.Errorf("lake dictionary %v: staged parts (%d tables) differ from built parts (%d tables)", d != nil, len(got), len(want))
		}
		if (d != nil) != (sd == d) || sd.Size() != built.Dict().Size() {
			t.Errorf("lake dictionary %v: staged parts in a dictionary of %d values, the engine's has %d", d != nil, sd.Size(), built.Dict().Size())
		}
	}
}
