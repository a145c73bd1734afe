package tablehound

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/table"
)

// The SHA-256 of every sketch-candidate answer of the harness lake — for
// each table TUS's candidate tables, for each column and threshold the
// LSH Ensemble's candidate keys in the order it met them and the
// verified containment answer — as the commit before the flat LSH band
// tables computed them. goldenCandidates is the 300-table lake built at
// once, goldenChainCandidates its first 290 tables extended by a delta
// of the last 10 (a different embedding model, hence other answers).
// Both indexes are rebuilt from signatures on every load and merge, so
// a band table that lost a collision, invented one or reordered a
// bucket anywhere on those paths would move them.
//
// Re-recorded when the ensemble's memoized (bands, rows) choice became
// a function of its 1e-3 threshold bucket alone: it used to be computed
// at the first threshold of the bucket any query brought, so these
// answers depended on the queries a process had served before.
const (
	goldenCandidates      = "a4639a2557f8aebd7864399eaea0e1f25f7153e2feb53d70acf80fb10d00d234"
	goldenChainCandidates = "862249d7228bb216721c37bee9767868e8f2fc713fd07dd40badfa1fb8ffe36e"
)

func candidatesDigest(t *testing.T, sys *core.System) string {
	t.Helper()
	sum := sha256.New()
	for _, tbl := range sys.Catalog.Tables() {
		if pq, err := sys.TUS.Prepare(tbl); err == nil {
			fmt.Fprintf(sum, "tus %s %v\n", tbl.ID, sys.TUS.Candidates(pq))
		}
		for _, c := range tbl.Columns {
			q := sys.Join.EncodeQuery(c.Values)
			if len(q.IDs) == 0 {
				continue
			}
			for _, threshold := range []float64{0.1, 0.5, 0.9} {
				ords, err := sys.Join.ContainmentCandidates(q, threshold)
				if err != nil {
					t.Fatal(err)
				}
				cands := make([]string, len(ords))
				for i, o := range ords {
					cands[i] = sys.Join.Key(o)
				}
				ms, err := sys.Join.ContainmentSearch(context.Background(), q, threshold)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(sum, "join %s.%s %.1f %v %v\n", tbl.ID, c.Name, threshold, cands, ms)
			}
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

func TestHarnessLakeCandidatesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; other targets may fuse multiply-adds")
	}
	gen, opts := harnessLake()
	build := func(tables []*table.Table) *core.System {
		cat := lake.NewCatalog()
		for _, tbl := range tables {
			if err := cat.Add(tbl); err != nil {
				t.Fatal(err)
			}
		}
		sys, err := core.Build(cat, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	dir := t.TempDir()
	save := func(sys *core.System, name string) string {
		path := filepath.Join(dir, name)
		if err := sys.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// The ensemble's (bands, rows) choice is memoized process-wide;
	// containment queries over another lake fill that memo first, and
	// the answers below must not notice.
	other := build(datagen.Generate(datagen.Config{Seed: 7, NumDomains: 12, DomainSize: 60, NumTemplates: 4, TablesPerTemplate: 10}).Tables)
	for _, tbl := range other.Catalog.Tables() {
		for _, c := range tbl.Columns {
			q := other.Join.EncodeQuery(c.Values)
			for _, threshold := range []float64{0.05, 0.3, 0.7} {
				if len(q.IDs) > 0 {
					if _, err := other.Join.ContainmentCandidates(q, threshold); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}

	built := build(gen.Tables)
	if got := candidatesDigest(t, built); got != goldenCandidates {
		t.Errorf("built system's candidates hash to %s, want %s", got, goldenCandidates)
	}
	loaded, err := core.LoadFile(save(built, "whole.snap"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := candidatesDigest(t, loaded); got != goldenCandidates {
		t.Errorf("loaded system's candidates hash to %s, want %s", got, goldenCandidates)
	}

	n := len(gen.Tables) - 10
	basePath := save(build(gen.Tables[:n]), "base.snap")
	delta, err := core.BuildDelta(basePath, nil, gen.Tables[n:], nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(dir, "delta.thdb")
	if err := delta.SaveFile(deltaPath); err != nil {
		t.Fatal(err)
	}
	merged, err := core.LoadChainFiles(basePath, []string{deltaPath}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := candidatesDigest(t, merged); got != goldenChainCandidates {
		t.Errorf("chain-merged system's candidates hash to %s, want %s", got, goldenChainCandidates)
	}
}
