package tablehound

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tablehound/internal/core"
	"tablehound/internal/lake"
	"tablehound/internal/table"
)

// The SHA-256 of TUS's candidate tables for every table of the harness
// lake, as the commit before containment moved off LSH Ensemble
// computed them. goldenCandidates is the 300-table lake built at once
// (and loaded back), goldenChainCandidates its first 290 tables
// extended by a delta of the last 10 (a different embedding model,
// hence other answers). The set-LSH index is rebuilt from signatures on
// every load and merge, so a band table that lost a collision, invented
// one or reordered a bucket anywhere on those paths would move them.
//
// These digests used to cover the join half too: the ensemble's
// candidate keys in the order it met them and the verified containment
// answer. Containment is now exact, so that half is held to the exact
// scan by TestContainmentEqualsExactScan instead of to a digest of an
// approximate answer, and these were recorded from the TUS half alone
// at the parent commit: the TUS candidates did not move.
const (
	goldenCandidates      = "9e4cf18c114707ade8860f00c7ad7494702f255831d49b0d22c924459c9d2083"
	goldenChainCandidates = "dd69fd4b3f1c781c6ac492938d32f72ec278f66590031d6a46364644b3b8d72e"
)

func tusCandidatesDigest(sys *core.System) string {
	sum := sha256.New()
	for _, tbl := range sys.Catalog.Tables() {
		if pq, err := sys.TUS.Prepare(tbl); err == nil {
			fmt.Fprintf(sum, "tus %s %v\n", tbl.ID, sys.TUS.Candidates(pq))
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// harnessSystem is one way of constructing the harness lake's system.
type harnessSystem struct {
	name string
	sys  *core.System
}

// harnessSystems builds the harness lake, saves and loads it, extends
// its first 290 tables by a delta of the last 10 and chain-loads that,
// and compacts the chain and loads the compacted base: the four
// constructions a served system comes from.
func harnessSystems(t *testing.T) []harnessSystem {
	t.Helper()
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
	loaded, err := core.LoadFile(save(built, "whole.snap"), opts)
	if err != nil {
		t.Fatal(err)
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
	chain, err := core.LoadChainFiles(basePath, []string{deltaPath}, opts)
	if err != nil {
		t.Fatal(err)
	}
	compactPath := filepath.Join(dir, "compacted.snap")
	if _, err := core.CompactFiles(basePath, []string{deltaPath}, compactPath, opts); err != nil {
		t.Fatal(err)
	}
	compacted, err := core.LoadFile(compactPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	return []harnessSystem{{"built", built}, {"loaded", loaded}, {"chain", chain}, {"compacted", compacted}}
}

func TestHarnessLakeCandidatesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; other targets may fuse multiply-adds")
	}
	want := map[string]string{
		"built":     goldenCandidates,
		"loaded":    goldenCandidates,
		"chain":     goldenChainCandidates,
		"compacted": goldenChainCandidates,
	}
	for _, hs := range harnessSystems(t) {
		if got := tusCandidatesDigest(hs.sys); got != want[hs.name] {
			t.Errorf("%s system's TUS candidates hash to %s, want %s", hs.name, got, want[hs.name])
		}
	}
}

// TestContainmentEqualsExactScan holds containment search to its
// oracle: for every column of every table of the harness lake, at
// thresholds 0.1, 0.5 and 0.9, ContainmentSearch returns exactly
// ExactContainmentScan's matches (keys, containments and overlaps, in
// order), and ContainmentCandidates exactly their columns, ascending,
// so verification scores no column that fails. It runs on the built,
// loaded, chain-loaded and compacted systems at QueryParallelism 1
// and 8.
func TestContainmentEqualsExactScan(t *testing.T) {
	ctx := context.Background()
	for _, hs := range harnessSystems(t) {
		e := hs.sys.Join
		for _, par := range []int{1, 8} {
			e.QueryParallelism = par
			for _, tbl := range hs.sys.Catalog.Tables() {
				for _, c := range tbl.Columns {
					q := e.EncodeQuery(c.Values)
					for _, threshold := range []float64{0.1, 0.5, 0.9} {
						got, err := e.ContainmentSearch(ctx, q, threshold)
						if len(q.IDs) == 0 {
							if !errors.Is(err, table.ErrBadQuery) {
								t.Fatalf("%s: empty query %s.%s: err = %v, want table.ErrBadQuery", hs.name, tbl.ID, c.Name, err)
							}
							continue
						}
						if err != nil {
							t.Fatal(err)
						}
						want := e.ExactContainmentScan(c.Values, threshold)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s P=%d %s.%s t=%.1f: containment search\n%+v\nexact scan\n%+v", hs.name, par, tbl.ID, c.Name, threshold, got, want)
						}
						ords, _, err := e.ContainmentCandidates(q, threshold)
						if err != nil {
							t.Fatal(err)
						}
						keys := make([]string, len(want))
						for i, m := range want {
							keys[i] = m.ColumnKey
						}
						slices.Sort(keys)
						cands := make([]string, len(ords))
						for i, o := range ords {
							cands[i] = e.Key(o.Ord)
						}
						if !slices.Equal(cands, keys) {
							t.Fatalf("%s %s.%s t=%.1f: candidates %v, exact columns %v", hs.name, tbl.ID, c.Name, threshold, cands, keys)
						}
					}
				}
			}
		}
	}
}
