package core

import (
	"context"
	"reflect"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/union"
)

// buildAt builds the same seeded lake at a given parallelism level.
func buildAt(t *testing.T, parallelism int) (*System, *datagen.Lake) {
	t.Helper()
	gen := datagen.Generate(datagen.Config{
		Seed:              97,
		NumDomains:        12,
		DomainSize:        60,
		NumTemplates:      5,
		TablesPerTemplate: 4,
	})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cat, Options{KB: gen.BuildKB(0.8), Seed: 3, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

// TestParallelBuildMatchesSequential is the pipeline's determinism
// contract: a Parallelism=8 build must answer every search surface
// identically to the Parallelism=1 (historical sequential) build.
func TestParallelBuildMatchesSequential(t *testing.T) {
	seq, gen := buildAt(t, 1)
	par, _ := buildAt(t, 8)

	topic := gen.DomainNames[gen.Templates[0].Domains[0]]
	gotK, err := par.KeywordSearch(topic, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantK, err := seq.KeywordSearch(topic, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotK, wantK) {
		t.Errorf("keyword results differ:\npar %+v\nseq %+v", gotK, wantK)
	}

	qcol := gen.Tables[0].Columns[0]
	gotJ, err := par.JoinableColumns(qcol.Values, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantJ, err := seq.JoinableColumns(qcol.Values, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotJ, wantJ) {
		t.Errorf("joinable results differ:\npar %+v\nseq %+v", gotJ, wantJ)
	}

	q := gen.Tables[0]
	gotU, err := par.UnionableTables(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantU, err := seq.UnionableTables(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotU, wantU) {
		t.Errorf("unionable results differ:\npar %+v\nseq %+v", gotU, wantU)
	}

	gotS, err := par.Starmie.SearchTables(context.Background(), q, 5, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	wantS, err := seq.Starmie.SearchTables(context.Background(), q, 5, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS, wantS) {
		t.Errorf("starmie results differ:\npar %+v\nseq %+v", gotS, wantS)
	}

	gotF, _ := par.Fuzzy.Search(qcol.Values, 0.85, 0.5)
	wantF, _ := seq.Fuzzy.Search(qcol.Values, 0.85, 0.5)
	if !reflect.DeepEqual(gotF, wantF) {
		t.Errorf("fuzzy results differ:\npar %+v\nseq %+v", gotF, wantF)
	}

	gotSa, err := par.Santos.Search(context.Background(), q, 5, union.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	wantSa, err := seq.Santos.Search(context.Background(), q, 5, union.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSa, wantSa) {
		t.Errorf("santos results differ:\npar %+v\nseq %+v", gotSa, wantSa)
	}

	gotD, err := par.D3L.Search(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := seq.D3L.Search(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotD, wantD) {
		t.Errorf("d3l results differ:\npar %+v\nseq %+v", gotD, wantD)
	}

	val := gen.Tables[3].Columns[0].Values[0]
	gotV, err := par.ValueSearch(val, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantV, err := seq.ValueSearch(val, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotV, wantV) {
		t.Errorf("value-search results differ:\npar %+v\nseq %+v", gotV, wantV)
	}
}

func TestBuildStatsRecorded(t *testing.T) {
	sys, _ := buildAt(t, 4)
	bs := sys.BuildStats
	if bs == nil {
		t.Fatal("no BuildStats attached")
	}
	if bs.Parallelism != 4 {
		t.Errorf("Parallelism = %d", bs.Parallelism)
	}
	if bs.Total <= 0 {
		t.Error("Total not recorded")
	}
	if len(bs.Stages) != numStages {
		t.Fatalf("stages = %d, want %d", len(bs.Stages), numStages)
	}
	model, ok := bs.Stage("model")
	if !ok || model.Items == 0 || model.Wall <= 0 {
		t.Errorf("model stage not timed: %+v", model)
	}
	fuzzy, ok := bs.Stage("fuzzy")
	if !ok || fuzzy.Skipped || fuzzy.Items == 0 {
		t.Errorf("fuzzy stage not recorded: %+v", fuzzy)
	}
	if rep := bs.Report(); rep == "" {
		t.Error("empty report")
	}
}

func TestBuildStatsSkippedStages(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cat, Options{SkipFuzzy: true, SkipGraph: true, SkipOrganization: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fuzzy", "graph", "org"} {
		st, ok := sys.BuildStats.Stage(name)
		if !ok || !st.Skipped {
			t.Errorf("stage %s not marked skipped: %+v", name, st)
		}
	}
}
