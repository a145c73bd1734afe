package starmie

import (
	"context"
	"reflect"
	"testing"

	"tablehound/internal/table"
)

// TestAddTablesMatchesSequential checks the batch loader's parity
// contract: AddTables at any worker count must stage the same parts as
// adding the tables one at a time, so the HNSW graph built afterwards —
// and every search — is identical.
func TestAddTablesMatchesSequential(t *testing.T) {
	lake, model := testLake()
	query := lake.Tables[0]

	seq := NewBuilder(NewEncoder(model, 0.3))
	for _, tbl := range lake.Tables {
		seq.AddTables([]*table.Table{tbl}, 1)
	}
	seqIx, err := seq.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := seqIx.SearchTables(context.Background(), query, 5, 64, false)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		par := NewBuilder(NewEncoder(model, 0.3))
		par.AddTables(lake.Tables, workers)
		if !reflect.DeepEqual(par.Parts(), seq.Parts()) {
			t.Fatalf("workers=%d: staged parts differ from one-at-a-time staging", workers)
		}
		ix, err := par.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.SearchTables(context.Background(), query, 5, 64, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}
