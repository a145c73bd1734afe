package starmie

import (
	"context"
	"reflect"
	"testing"
)

// TestAddTablesMatchesSequential checks the batch loader's parity
// contract: AddTables at any worker count must leave the index in the
// same state as the historical one-at-a-time AddTable loop, so the
// HNSW graph built afterwards — and every search — is identical.
func TestAddTablesMatchesSequential(t *testing.T) {
	lake, model := testLake()
	query := lake.Tables[0]

	seq := NewIndex(NewEncoder(model, 0.3))
	for _, tbl := range lake.Tables {
		seq.AddTable(tbl)
	}
	if err := seq.Build(); err != nil {
		t.Fatal(err)
	}
	want, err := seq.SearchTables(context.Background(), query, 5, 64, false)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		par := NewIndex(NewEncoder(model, 0.3))
		par.AddTables(lake.Tables, workers)
		if par.NumColumns() != seq.NumColumns() {
			t.Fatalf("workers=%d: %d columns, want %d", workers, par.NumColumns(), seq.NumColumns())
		}
		if err := par.Build(); err != nil {
			t.Fatal(err)
		}
		got, err := par.SearchTables(context.Background(), query, 5, 64, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}
