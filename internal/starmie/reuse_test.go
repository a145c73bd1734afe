package starmie

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tablehound/internal/embedding"
	"tablehound/internal/table"
	"tablehound/internal/vecstore"
)

// builtIndex stages and builds the test lake; with bound the index is
// moved onto a vector store, as core does for every served system.
func builtIndex(t testing.TB, bound bool) (*Index, []*table.Table) {
	t.Helper()
	lake, model := testLake()
	ix := buildIndex(t, NewEncoder(model, 0.3), lake.Tables...)
	if bound {
		b := vecstore.NewBuilder(model.Dim())
		for _, key := range ix.ColumnKeys() {
			b.Append("starmie", ix.VectorOf(key))
		}
		store, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		view, _ := store.View("starmie")
		if err := ix.Bind(view); err != nil {
			t.Fatal(err)
		}
	}
	return ix, lake.Tables
}

// sameTable is a deep copy under the same ID: not the staged pointer.
func sameTable(tb *table.Table) *table.Table {
	cols := make([]*table.Column, len(tb.Columns))
	for i, c := range tb.Columns {
		cols[i] = &table.Column{Name: c.Name, Type: c.Type, Values: append([]string(nil), c.Values...)}
	}
	return table.MustNew(tb.ID, tb.Name, cols)
}

func aliases(a, b embedding.Vector) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestPrepareTableReusesStagedVectors: the staged pointer gets the
// indexed vectors themselves (no encoding), a copy gets fresh ones, and
// the two prepared queries are equal in every bit — vectors and norms.
func TestPrepareTableReusesStagedVectors(t *testing.T) {
	for _, bound := range []bool{false, true} {
		ix, tables := builtIndex(t, bound)
		for _, tb := range tables {
			staged, err := ix.PrepareTable(tb)
			if err != nil {
				t.Fatal(err)
			}
			copied, err := ix.PrepareTable(sameTable(tb))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(staged, copied) {
				t.Fatalf("bound=%v %s: prepared queries differ:\nstaged %+v\ncopy   %+v", bound, tb.ID, staged, copied)
			}
			for i, c := range tb.Columns {
				indexed := ix.VectorOf(table.ColumnKey(tb.ID, c.Name))
				if !aliases(staged.qv[i], indexed) {
					t.Fatalf("bound=%v %s.%s: staged query was encoded again", bound, tb.ID, c.Name)
				}
				if aliases(copied.qv[i], indexed) {
					t.Fatalf("bound=%v %s.%s: a copy was answered from the staged vectors", bound, tb.ID, c.Name)
				}
			}
		}
	}
}

// TestRestagedTableIsNotReused: AddTables ignores a second table under
// a staged ID, so that table must not be taken for the staged one.
func TestRestagedTableIsNotReused(t *testing.T) {
	_, model := testLake()
	mk := func(vals []string) *table.Table {
		return table.MustNew("t", "t", []*table.Column{table.NewColumn("c", vals), table.NewColumn("d", vals)})
	}
	first, second := mk([]string{"alpha", "beta"}), mk([]string{"gamma", "delta"})
	ix := buildIndex(t, NewEncoder(model, 0.3), first, second)
	pq, err := ix.PrepareTable(second)
	if err != nil {
		t.Fatal(err)
	}
	if want := ix.enc.EncodeColumns(second); !reflect.DeepEqual(pq.qv, want) {
		t.Error("the ignored duplicate was answered from the first table's vectors")
	}
}

func TestStarmieCancelledContext(t *testing.T) {
	ix, tables := builtIndex(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.SearchTables(ctx, tables[0], 3, 64, false); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchTables on a cancelled context: err = %v, want context.Canceled", err)
	}
	pq, err := ix.PrepareTable(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	cands := ix.CandidateTables(pq, 64, false)
	if len(cands) == 0 {
		t.Fatal("no candidates: the cancellation check would not be reached")
	}
	if _, err := ix.ScoreTablesAmong(ctx, pq, cands, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("ScoreTablesAmong on a cancelled context: err = %v, want context.Canceled", err)
	}
}

var searchSink []Result

// BenchmarkStarmieSearch is one table-union query over the bound test
// lake, by the staged pointer (the table_id path: vectors reused) and
// by a copy (the inline-table path: the query is encoded first).
func BenchmarkStarmieSearch(b *testing.B) {
	ix, tables := builtIndex(b, true)
	copies := make([]*table.Table, len(tables))
	for i, tb := range tables {
		copies[i] = sameTable(tb)
	}
	for _, bc := range []struct {
		name    string
		queries []*table.Table
	}{{"staged", tables}, {"copy", copies}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ix.SearchTables(context.Background(), bc.queries[i%len(bc.queries)], 10, 64, false)
				if err != nil {
					b.Fatal(err)
				}
				searchSink = res
			}
		})
	}
}
