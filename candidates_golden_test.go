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
const (
	goldenCandidates      = "c57454a55845ba7610f495f0fd32fdc244b3df006a369160d596bdf20acf8661"
	goldenChainCandidates = "314a2e53c8d05f9188b515e7d61afe39c5772438b6e393afa95aaeb00874352a"
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
