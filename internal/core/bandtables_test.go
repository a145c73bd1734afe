package core

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/dict"
	"tablehound/internal/join"
	"tablehound/internal/lake"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// bandAnswers renders a TUS search of every table of s's catalog: the
// reader of the TUS band tables.
func bandAnswers(t *testing.T, s *System) string {
	t.Helper()
	out := ""
	for _, tbl := range s.Catalog.Tables() {
		rs, err := s.TUS.Search(context.Background(), tbl, 5, union.EnsembleMeasure)
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("tus %s %+v\n", tbl.ID, rs)
	}
	return out
}

// goldenBandAnswers is the SHA-256 of bandAnswers on each system of
// skipFixture(Options{Seed: 3}). The digests used to cover the join
// band tables' readers too (LSH Ensemble candidates and verified
// containment), as the commit before the band tables moved to their
// first probe answered them. Containment left the ensemble for the
// exact posting-list search, which TestContainmentEqualsExactScan and
// TestMergeSequences hold to the exact scan, so these were recorded
// from the TUS half alone at the parent commit of that change.
var goldenBandAnswers = map[string]string{
	"built":            "2b0cda675e6f3f4ef695c8995227509c6412dfa12c1847ed369e021c7aa9586a",
	"loaded":           "2b0cda675e6f3f4ef695c8995227509c6412dfa12c1847ed369e021c7aa9586a",
	"chain":            "2c1ac63272c54bf96dfd7680cffa8704387b2af3d6fa788c0fb685296d9f6d4b",
	"compacted":        "2c1ac63272c54bf96dfd7680cffa8704387b2af3d6fa788c0fb685296d9f6d4b",
	"compacted-loaded": "2c1ac63272c54bf96dfd7680cffa8704387b2af3d6fa788c0fb685296d9f6d4b",
}

// TestConstructionBuildsNoBandTable checks that Build, LoadFile,
// LoadChainFiles and CompactFiles leave every TUS band table to the
// first query that probes it, and that the queries then answer as the
// eager build did; and that BuildDelta's join ID sets are the ones a
// built engine's parts would carry.
func TestConstructionBuildsNoBandTable(t *testing.T) {
	systems := skipFixture(t, Options{Seed: 3})
	names := make([]string, 0, len(systems))
	for name := range systems {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sys := systems[name]
		if f := sys.TUS.LSHFootprint(); f.Count != 0 || f.Bytes != 0 {
			t.Errorf("%s system built TUS band tables before any query: %+v", name, f)
		}
		if got := sha256Hex(bandAnswers(t, sys)); got != goldenBandAnswers[name] {
			t.Errorf("%s system's answers hash to %s, want %s", name, got, goldenBandAnswers[name])
		}
		if sys.TUS.LSHFootprint().Count == 0 {
			t.Errorf("%s system's queries built no band table", name)
		}
	}

	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	cat := lake.NewCatalog()
	if err := cat.AddBatch(all[:len(all)-1]); err != nil {
		t.Fatal(err)
	}
	base, err := Build(cat, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(t.TempDir(), "base.snap")
	if err := base.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	delta, err := BuildDelta(basePath, nil, all[len(all)-1:], nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delta analysis encodes its join columns without an engine, in the
	// base dictionary extended by the delta's values.
	if len(delta.JoinIDSets) == 0 {
		t.Fatal("the delta indexes no join column")
	}
	jb := join.NewBuilder(minJoinCardinality)
	jb.UseDict(dict.Extend(base.Dict, delta.NewValues))
	jb.AddTable(all[len(all)-1])
	eng, err := jb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if want := eng.Parts().IDSets; !reflect.DeepEqual(delta.JoinIDSets, want) {
		t.Errorf("delta join ID sets %v, a built engine's parts %v", delta.JoinIDSets, want)
	}
}
