package core

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/starmie"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// copyTable returns a deep copy of tb under the same ID: equal in
// every cell, but not the pointer any engine staged, so it takes the
// full query-analysis path.
func copyTable(tb *table.Table) *table.Table {
	cols := make([]*table.Column, len(tb.Columns))
	for i, c := range tb.Columns {
		cols[i] = &table.Column{Name: c.Name, Type: c.Type, Values: append([]string(nil), c.Values...)}
	}
	cp := table.MustNew(tb.ID, tb.Name, cols)
	cp.Description, cp.Tags = tb.Description, append([]string(nil), tb.Tags...)
	return cp
}

// reuseSystems returns one system per way a catalog comes to be bound
// to its engines: built, loaded (mmap and heap vectors), merged from a
// delta chain, and compacted.
func reuseSystems(t *testing.T) map[string]*System {
	t.Helper()
	gen := datagen.Generate(datagen.Config{Seed: 29, NumTemplates: 4, TablesPerTemplate: 4})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	baseTables, added := all[:len(all)-3], all[len(all)-3:]
	cat := lake.NewCatalog()
	if err := cat.AddBatch(baseTables); err != nil {
		t.Fatal(err)
	}
	built, err := Build(cat, Options{KB: gen.BuildKB(0.8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.snap")
	if err := built.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	systems := map[string]*System{"built": built}
	for _, mode := range []string{"mmap", "heap"} {
		if systems["loaded-"+mode], err = LoadFile(basePath, Options{VecMode: mode}); err != nil {
			t.Fatalf("LoadFile(%s): %v", mode, err)
		}
	}
	d, err := BuildDelta(basePath, nil, added, []string{baseTables[1].ID}, Options{})
	if err != nil {
		t.Fatalf("BuildDelta: %v", err)
	}
	deltaPath := filepath.Join(dir, "delta0.thdb")
	if err := d.SaveFile(deltaPath); err != nil {
		t.Fatal(err)
	}
	if systems["chain"], err = LoadChainFiles(basePath, []string{deltaPath}, Options{}); err != nil {
		t.Fatalf("LoadChainFiles: %v", err)
	}
	if systems["compacted"], err = CompactFiles(basePath, []string{deltaPath}, filepath.Join(dir, "compacted.snap"), Options{}); err != nil {
		t.Fatalf("CompactFiles: %v", err)
	}
	return systems
}

// unionRankings is every union engine's answer to q that staged-table
// reuse touches (D3L's is held to its oracle in internal/union).
func unionRankings(t *testing.T, s *System, q *table.Table) [3]any {
	t.Helper()
	ctx := context.Background()
	tus, err := s.TUS.Search(ctx, q, 10, union.EnsembleMeasure)
	if err != nil {
		t.Fatalf("TUS %s: %v", q.ID, err)
	}
	// Tables without an intent column and a second string column are
	// bad SANTOS queries either way; the error is part of the answer.
	santos, serr := s.Santos.Search(ctx, q, 10, union.Hybrid)
	st, err := s.Starmie.SearchTables(ctx, q, 10, 64, false)
	if err != nil {
		t.Fatalf("Starmie %s: %v", q.ID, err)
	}
	return [3]any{tus, []any{santos, serr != nil}, st}
}

// TestStagedQueryReuseParity: a query that is a catalog table (the
// table_id path) is answered from the engines' staged analysis, a deep
// copy of it from a full analysis — the rankings must not differ in a
// bit, however the system came to hold its catalog.
func TestStagedQueryReuseParity(t *testing.T) {
	for name, sys := range reuseSystems(t) {
		enc := starmie.NewEncoder(sys.Model, 0.3)
		for _, tb := range sys.Catalog.Tables() {
			staged, copied := unionRankings(t, sys, tb), unionRankings(t, sys, copyTable(tb))
			if !reflect.DeepEqual(staged, copied) {
				t.Errorf("%s/%s: staged pointer and deep copy rank differently:\nstaged %+v\ncopy   %+v", name, tb.ID, staged, copied)
			}
			// The indexed vectors a staged query reuses are the encoder's
			// output, bit for bit, wherever they now live (heap, mmap,
			// reassembled from delta parts).
			for i, v := range enc.EncodeColumns(tb) {
				key := table.ColumnKey(tb.ID, tb.Columns[i].Name)
				if !reflect.DeepEqual(sys.Starmie.VectorOf(key), v) {
					t.Errorf("%s: indexed vector of %s differs from EncodeColumns", name, key)
				}
			}
		}
	}
}

// TestBorrowedIDQueriesOwnCells: a table that reuses a lake ID with
// other cells is not the staged table; every engine must analyze the
// cells it was given, not answer for the table the ID names.
func TestBorrowedIDQueriesOwnCells(t *testing.T) {
	sys := reuseSystems(t)["loaded-mmap"]
	tables := sys.Catalog.Tables()
	owner, other := tables[0], tables[len(tables)-1]
	// other's cells under owner's ID, and the same cells under an ID the
	// lake has never seen: the only difference the engines may show is
	// the self-exclusion of the ID, so compare with both IDs dropped.
	borrowed, foreign := copyTable(other), copyTable(other)
	borrowed.ID, foreign.ID = owner.ID, "reuse-test-foreign"
	drop := func(rs []union.Result) []union.Result {
		var out []union.Result
		for _, r := range rs {
			if r.TableID != owner.ID && r.TableID != other.ID {
				out = append(out, r)
			}
		}
		return out
	}
	asUnion := func(ms []starmie.Result) []union.Result {
		out := make([]union.Result, len(ms))
		for i, m := range ms {
			out[i] = union.Result{TableID: m.TableID, Score: m.Score}
		}
		return out
	}
	ctx := context.Background()
	n := len(tables)
	gt, err := sys.TUS.Search(ctx, borrowed, n, union.EnsembleMeasure)
	wt, werr := sys.TUS.Search(ctx, foreign, n, union.EnsembleMeasure)
	if err != nil || werr != nil || !reflect.DeepEqual(drop(gt), drop(wt)) {
		t.Errorf("TUS answered a borrowed ID from the wrong cells:\ngot  %+v (%v)\nwant %+v (%v)", gt, err, wt, werr)
	}
	gs, err := sys.Santos.Search(ctx, borrowed, n, union.Hybrid)
	ws, werr := sys.Santos.Search(ctx, foreign, n, union.Hybrid)
	if (err != nil) != (werr != nil) || !reflect.DeepEqual(drop(gs), drop(ws)) {
		t.Errorf("SANTOS answered a borrowed ID from the wrong cells:\ngot  %+v (%v)\nwant %+v (%v)", gs, err, ws, werr)
	}
	gm, err := sys.Starmie.SearchTables(ctx, borrowed, n, 64, true)
	wm, werr := sys.Starmie.SearchTables(ctx, foreign, n, 64, true)
	if err != nil || werr != nil || !reflect.DeepEqual(drop(asUnion(gm)), drop(asUnion(wm))) {
		t.Errorf("Starmie answered a borrowed ID from the wrong cells:\ngot  %+v (%v)\nwant %+v (%v)", gm, err, wm, werr)
	}
	// And the answers do differ from the owner's own: the guard above
	// would pass vacuously if the two tables ranked the lake alike.
	own, err := sys.TUS.Search(ctx, owner, n, union.EnsembleMeasure)
	if err != nil || reflect.DeepEqual(drop(own), drop(gt)) {
		t.Errorf("owner and borrowed-ID rankings coincide (%v): the fixture does not tell them apart", err)
	}
}
