package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// bandAnswers renders, over s's catalog, the LSH Ensemble candidates
// (in the order met) and the verified containment answer of every
// indexed column at two thresholds, and a TUS search of every table:
// the readers of the join and TUS band tables.
func bandAnswers(t *testing.T, s *System) string {
	t.Helper()
	ctx := context.Background()
	out := ""
	for _, tbl := range s.Catalog.Tables() {
		for _, c := range tbl.Columns {
			q := s.Join.EncodeQuery(c.Values)
			if len(q.IDs) == 0 {
				continue
			}
			for _, threshold := range []float64{0.1, 0.5} {
				ords, err := s.Join.ContainmentCandidates(q, threshold)
				if err != nil {
					t.Fatal(err)
				}
				cands := make([]string, len(ords))
				for i, o := range ords {
					cands[i] = s.Join.Key(o)
				}
				ms, err := s.Join.ContainmentSearch(ctx, q, threshold)
				if err != nil {
					t.Fatal(err)
				}
				out += fmt.Sprintf("join %s.%s %.1f %v %+v\n", tbl.ID, c.Name, threshold, cands, ms)
			}
		}
		rs, err := s.TUS.Search(ctx, tbl, 5, union.EnsembleMeasure)
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("tus %s %+v\n", tbl.ID, rs)
	}
	return out
}

// goldenBandAnswers is the SHA-256 of bandAnswers on each system of
// skipFixture(Options{Seed: 3}) as the commit before the band tables
// moved to their first probe answered it, when every construction built
// all of them.
var goldenBandAnswers = map[string]string{
	"built":            "1982d7089265cfa51ef0eed27789ec6216fa6aa4cfb369687f2269ff332722da",
	"loaded":           "1982d7089265cfa51ef0eed27789ec6216fa6aa4cfb369687f2269ff332722da",
	"chain":            "2154947232e327160cb3148410879916f6adee87cd5a933dc1951a8bfef5843e",
	"compacted":        "2154947232e327160cb3148410879916f6adee87cd5a933dc1951a8bfef5843e",
	"compacted-loaded": "2154947232e327160cb3148410879916f6adee87cd5a933dc1951a8bfef5843e",
}

// TestConstructionBuildsNoBandTable checks that Build, LoadFile,
// LoadChainFiles, CompactFiles and BuildDelta leave every join and TUS
// band table to the first query that probes it, and that the queries
// then answer as the eager build did.
func TestConstructionBuildsNoBandTable(t *testing.T) {
	systems := skipFixture(t, Options{Seed: 3})
	names := make([]string, 0, len(systems))
	for name := range systems {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sys := systems[name]
		if f := sys.Join.LSHFootprint(); f.Count != 0 || f.Bytes != 0 {
			t.Errorf("%s system built join band tables before any query: %+v", name, f)
		}
		if f := sys.TUS.LSHFootprint(); f.Count != 0 || f.Bytes != 0 {
			t.Errorf("%s system built TUS band tables before any query: %+v", name, f)
		}
		if got := sha256Hex(bandAnswers(t, sys)); got != goldenBandAnswers[name] {
			t.Errorf("%s system's answers hash to %s, want %s", name, got, goldenBandAnswers[name])
		}
		if sys.Join.LSHFootprint().Count == 0 || sys.TUS.LSHFootprint().Count == 0 {
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
	_, scratch, err := buildDelta(basePath, nil, all[len(all)-1:], nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delta analysis never freezes its TUS engine, so that has no
	// set-LSH to check.
	if scratch.Join == nil {
		t.Fatal("the delta indexes no join column")
	}
	if f := scratch.Join.LSHFootprint(); f.Count != 0 || f.Bytes != 0 {
		t.Errorf("BuildDelta built join band tables: %+v", f)
	}
}
