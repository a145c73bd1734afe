package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/snap"
	"tablehound/internal/table"
	"tablehound/internal/union"
)

// assertSurfaceParity compares every search surface of got against
// want over a set of query tables. The parity contract is the delta
// subsystem's core promise: a system assembled from (base + deltas)
// answers bit-identically to one built from scratch over the merged
// catalog with the same frozen embedding model.
func assertSurfaceParity(t *testing.T, label string, got, want *System, gen *datagen.Lake, queryTables []*table.Table) {
	t.Helper()
	check := func(surface string, g, w any, gerr, werr error) {
		t.Helper()
		if gerr != nil || werr != nil {
			t.Fatalf("%s/%s: got err %v, want err %v", label, surface, gerr, werr)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s/%s results differ:\ngot  %+v\nwant %+v", label, surface, g, w)
		}
	}

	topic := gen.DomainNames[gen.Templates[0].Domains[0]]
	gk, ge := got.KeywordSearch(topic, 10)
	wk, we := want.KeywordSearch(topic, 10)
	check("keyword", gk, wk, ge, we)

	for i, q := range queryTables {
		qcol := q.Columns[0]
		tag := fmt.Sprintf("%s-q%d", q.ID, i)

		gv, ge := got.ValueSearch(qcol.Values[0], 10)
		wv, we := want.ValueSearch(qcol.Values[0], 10)
		check("value-"+tag, gv, wv, ge, we)

		gj, ge := got.JoinableColumns(qcol.Values, 10)
		wj, we := want.JoinableColumns(qcol.Values, 10)
		check("join-overlap-"+tag, gj, wj, ge, we)

		gc, ge := got.ContainmentSearch(qcol.Values, 0.5, 10)
		wc, we := want.ContainmentSearch(qcol.Values, 0.5, 10)
		check("join-containment-"+tag, gc, wc, ge, we)

		// Queries mixing indexed values with dictionary-OOV strings:
		// the extended dictionary must treat unseen values exactly as a
		// from-scratch dictionary does.
		oov := append([]string{"zzz-delta-oov-1", "zzz-delta-oov-2"}, qcol.Values[:min(4, len(qcol.Values))]...)
		goov, ge := got.JoinableColumns(oov, 10)
		woov, we := want.JoinableColumns(oov, 10)
		check("join-oov-"+tag, goov, woov, ge, we)

		gu, ge := got.UnionableTables(q, 10)
		wu, we := want.UnionableTables(q, 10)
		check("tus-union-"+tag, gu, wu, ge, we)

		gsa, ge := got.Santos.Search(context.Background(), q, 5, union.Hybrid)
		wsa, we := want.Santos.Search(context.Background(), q, 5, union.Hybrid)
		check("santos-"+tag, gsa, wsa, ge, we)

		gd, ge := got.D3L.Search(context.Background(), q, 5)
		wd, we := want.D3L.Search(context.Background(), q, 5)
		check("d3l-"+tag, gd, wd, ge, we)
		gda, ge := d3lAnswers(got, q)
		wda, we := d3lAnswers(want, q)
		check("d3l-whole-lake-"+tag, gda, wda, ge, we)

		gs, ge := got.Starmie.SearchTables(context.Background(), q, 5, 64, false)
		ws, we := want.Starmie.SearchTables(context.Background(), q, 5, 64, false)
		check("starmie-"+tag, gs, ws, ge, we)

		gf, _ := got.Fuzzy.Search(qcol.Values, 0.85, 0.5)
		wf, _ := want.Fuzzy.Search(qcol.Values, 0.85, 0.5)
		check("fuzzy-"+tag, gf, wf, nil, nil)
	}

	glab, gid, ge := got.Navigate(topic)
	wlab, wid, we := want.Navigate(topic)
	check("navigate-labels", glab, wlab, ge, we)
	check("navigate-table", gid, wid, nil, nil)

	wantTables := want.Catalog.Tables()
	from, to := wantTables[0].ID, wantTables[len(wantTables)-1].ID
	check("joinpath", got.JoinPath(from, to, 3), want.JoinPath(from, to, 3), nil, nil)

	gm := got.MatchSchemas(queryTables[0], queryTables[len(queryTables)-1], 0.5)
	wm := want.MatchSchemas(queryTables[0], queryTables[len(queryTables)-1], 0.5)
	check("match-schemas", gm, wm, nil, nil)
}

// TestDeltaMergeParity drives a sequence of add/remove deltas over a
// base snapshot — including a removed-then-re-added table ID and a
// remove+add replace within one delta — and checks that the merged
// system, the compacted system, and a reload of the compacted base all
// answer every surface bit-identically to a from-scratch build over
// the surviving tables (with the base's frozen model pinned, since
// deltas never retrain).
func TestDeltaMergeParity(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 11, NumTemplates: 4, TablesPerTemplate: 4})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if len(all) < 14 {
		t.Fatalf("datagen produced %d tables, need >= 14", len(all))
	}
	curated := gen.BuildKB(0.8)
	baseTables, pool := all[:10], all[10:]

	cat := lake.NewCatalog()
	if err := cat.AddBatch(baseTables); err != nil {
		t.Fatal(err)
	}
	base, err := Build(cat, Options{KB: curated, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.snap")
	if err := base.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}

	live := make(map[string]*table.Table, len(baseTables))
	for _, tb := range baseTables {
		live[tb.ID] = tb
	}
	var deltaPaths []string
	writeDelta := func(add []*table.Table, remove []string) {
		t.Helper()
		d, err := BuildDelta(basePath, deltaPaths, add, remove, Options{})
		if err != nil {
			t.Fatalf("BuildDelta: %v", err)
		}
		p := filepath.Join(dir, fmt.Sprintf("delta%d.thdb", len(deltaPaths)))
		if err := d.SaveFile(p); err != nil {
			t.Fatalf("SaveFile: %v", err)
		}
		deltaPaths = append(deltaPaths, p)
		for _, id := range remove {
			delete(live, id)
		}
		for _, tb := range add {
			live[tb.ID] = tb
		}
	}

	// Round 1: pure addition. Round 2: pure removal of one randomly
	// chosen base table plus one just-added table. Round 3: re-add the
	// removed base table (removed-then-re-added ID), replace pool[0]
	// in a single delta (tombstone + re-add), and add the remainder.
	rng := rand.New(rand.NewSource(42))
	victim := baseTables[rng.Intn(len(baseTables))]
	writeDelta(pool[:3], nil)
	writeDelta(nil, []string{victim.ID, pool[1].ID})
	writeDelta(append([]*table.Table{victim, pool[0]}, pool[3:]...), []string{pool[0].ID})

	merged, err := LoadChainFiles(basePath, deltaPaths, Options{})
	if err != nil {
		t.Fatalf("LoadChainFiles: %v", err)
	}

	finalIDs := sortedKeys(live)
	ordered := make([]*table.Table, len(finalIDs))
	for i, id := range finalIDs {
		ordered[i] = live[id]
	}
	fcat := lake.NewCatalog()
	if err := fcat.AddBatch(ordered); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(fcat, Options{KB: curated, Seed: 3, Model: base.Model})
	if err != nil {
		t.Fatal(err)
	}

	var stableBase *table.Table
	for _, tb := range baseTables {
		if tb.ID != victim.ID {
			stableBase = tb
			break
		}
	}
	queryTables := []*table.Table{stableBase, victim, pool[0], pool[2]}
	assertSurfaceParity(t, "merged-vs-fresh", merged, fresh, gen, queryTables)

	if merged.Lineage == nil || merged.Lineage.Depth() != 3 {
		t.Fatalf("merged lineage = %+v, want depth 3", merged.Lineage)
	}
	finalHashes := make([]uint64, len(finalIDs))
	for i, id := range finalIDs {
		finalHashes[i] = live[id].ContentHash()
	}
	if want := snap.HashTables(finalIDs, finalHashes); merged.Lineage.Gen != want {
		t.Errorf("merged generation %016x, want %016x", merged.Lineage.Gen, want)
	}
	if !reflect.DeepEqual(merged.Lineage.TableIDs, finalIDs) {
		t.Errorf("merged table IDs %v, want %v", merged.Lineage.TableIDs, finalIDs)
	}
	if merged.Lineage.TombstoneCount() != 3 {
		t.Errorf("tombstone count = %d, want 3", merged.Lineage.TombstoneCount())
	}
	if merged.Catalog.Table(pool[1].ID) != nil {
		t.Errorf("removed table %q still in merged catalog", pool[1].ID)
	}

	// Compaction folds the chain into a new base: same answers, same
	// generation, zero depth — and new deltas chain onto it.
	outPath := filepath.Join(dir, "compacted.snap")
	csys, err := CompactFiles(basePath, deltaPaths, outPath, Options{})
	if err != nil {
		t.Fatalf("CompactFiles: %v", err)
	}
	if csys.Lineage.Depth() != 0 || csys.Lineage.Gen != merged.Lineage.Gen {
		t.Errorf("compacted lineage = %+v, want depth 0 at gen %016x", csys.Lineage, merged.Lineage.Gen)
	}
	assertSurfaceParity(t, "compacted-vs-fresh", csys, fresh, gen, queryTables)

	reloaded, err := LoadFile(outPath, Options{})
	if err != nil {
		t.Fatalf("LoadFile(compacted): %v", err)
	}
	if reloaded.Lineage.Gen != merged.Lineage.Gen {
		t.Errorf("reloaded compacted gen %016x, want %016x", reloaded.Lineage.Gen, merged.Lineage.Gen)
	}
	assertSurfaceParity(t, "reloaded-compacted-vs-fresh", reloaded, fresh, gen, queryTables)

	d4, err := BuildDelta(outPath, nil, nil, []string{pool[2].ID}, Options{})
	if err != nil {
		t.Fatalf("BuildDelta onto compacted base: %v", err)
	}
	p4 := filepath.Join(dir, "delta4.thdb")
	if err := d4.SaveFile(p4); err != nil {
		t.Fatal(err)
	}
	after, err := LoadChainFiles(outPath, []string{p4}, Options{})
	if err != nil {
		t.Fatalf("LoadChainFiles onto compacted base: %v", err)
	}
	if after.Catalog.Table(pool[2].ID) != nil {
		t.Errorf("table %q survives its tombstone on the compacted chain", pool[2].ID)
	}
	if after.Catalog.Len() != len(finalIDs)-1 {
		t.Errorf("post-compaction chain has %d tables, want %d", after.Catalog.Len(), len(finalIDs)-1)
	}
}

// deltaFixture builds a tiny base snapshot plus one valid delta and
// returns their paths along with the delta and the table it added.
func deltaFixture(t *testing.T) (basePath, deltaPath string, d *Delta, added *table.Table) {
	t.Helper()
	gen := datagen.Generate(datagen.Config{Seed: 5, NumTemplates: 2, TablesPerTemplate: 2})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	cat := lake.NewCatalog()
	if err := cat.AddBatch(all[:len(all)-1]); err != nil {
		t.Fatal(err)
	}
	base, err := Build(cat, Options{KB: gen.BuildKB(0.8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	basePath = filepath.Join(dir, "base.snap")
	if err := base.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	added = all[len(all)-1]
	d, err = BuildDelta(basePath, nil, []*table.Table{added}, nil, Options{})
	if err != nil {
		t.Fatalf("BuildDelta: %v", err)
	}
	deltaPath = filepath.Join(dir, "delta0.thdb")
	if err := d.SaveFile(deltaPath); err != nil {
		t.Fatal(err)
	}
	return basePath, deltaPath, d, added
}

// TestDeltaChainValidation pins the typed chain errors: a delta whose
// links do not match the lake it is applied to is rejected with
// ErrDeltaChain (never silently merged, never reported as corruption).
func TestDeltaChainValidation(t *testing.T) {
	basePath, deltaPath, d, added := deltaFixture(t)
	dir := filepath.Dir(deltaPath)

	saveVariant := func(name string, mutate func(*Delta)) string {
		t.Helper()
		v := *d
		mutate(&v)
		p := filepath.Join(dir, name)
		if err := v.SaveFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("wrong parent generation", func(t *testing.T) {
		p := saveVariant("parent.thdb", func(v *Delta) { v.ParentGen ^= 1 })
		if _, err := LoadChainFiles(basePath, []string{p}, Options{}); !errors.Is(err, ErrDeltaChain) {
			t.Errorf("err = %v, want ErrDeltaChain", err)
		}
	})
	t.Run("wrong result generation", func(t *testing.T) {
		p := saveVariant("result.thdb", func(v *Delta) { v.ResultGen ^= 1 })
		if _, err := LoadChainFiles(basePath, []string{p}, Options{}); !errors.Is(err, ErrDeltaChain) {
			t.Errorf("err = %v, want ErrDeltaChain", err)
		}
	})
	t.Run("dictionary size mismatch", func(t *testing.T) {
		p := saveVariant("dict.thdb", func(v *Delta) { v.BaseDictSize++ })
		if _, err := LoadChainFiles(basePath, []string{p}, Options{}); !errors.Is(err, ErrDeltaChain) {
			t.Errorf("err = %v, want ErrDeltaChain", err)
		}
	})
	t.Run("same delta applied twice", func(t *testing.T) {
		if _, err := LoadChainFiles(basePath, []string{deltaPath, deltaPath}, Options{}); !errors.Is(err, ErrDeltaChain) {
			t.Errorf("err = %v, want ErrDeltaChain", err)
		}
	})
	t.Run("remove of absent table", func(t *testing.T) {
		if _, err := BuildDelta(basePath, nil, nil, []string{"no-such-table"}, Options{}); err == nil {
			t.Error("BuildDelta removing an absent table succeeded")
		}
	})
	t.Run("add of duplicate table", func(t *testing.T) {
		if _, err := BuildDelta(basePath, []string{deltaPath}, []*table.Table{added}, nil, Options{}); err == nil {
			t.Error("BuildDelta re-adding a live table without removal succeeded")
		}
	})
	t.Run("empty delta", func(t *testing.T) {
		if _, err := BuildDelta(basePath, nil, nil, nil, Options{}); err == nil {
			t.Error("BuildDelta with nothing to do succeeded")
		}
	})

	// The same links checked where a chain is loaded rather than
	// extended: each case must fail on the check its name says, so the
	// message is pinned beside the sentinel.
	loadFails := func(t *testing.T, paths []string, msg string) {
		t.Helper()
		_, err := LoadChainFiles(basePath, paths, Options{})
		if !errors.Is(err, ErrDeltaChain) || !strings.Contains(err.Error(), msg) {
			t.Errorf("err = %v, want ErrDeltaChain naming %q", err, msg)
		}
	}
	// next chains a copy of d onto d itself: it adds nothing new to the
	// dictionary and leaves the membership at d's result.
	next := func(name string, mutate func(*Delta)) string {
		return saveVariant(name, func(v *Delta) {
			v.ParentGen = d.ResultGen
			v.BaseDictSize = d.BaseDictSize + len(d.NewValues)
			v.NewValues = nil
			mutate(v)
		})
	}
	t.Run("load: tombstone for an absent table", func(t *testing.T) {
		p := saveVariant("absent.thdb", func(v *Delta) { v.Tombstones = []string{"no-such-table"} })
		loadFails(t, []string{p}, `removes "no-such-table"`)
	})
	t.Run("load: re-add without a tombstone", func(t *testing.T) {
		p := next("readd.thdb", func(*Delta) {})
		loadFails(t, []string{deltaPath, p}, "without a tombstone")
	})
	t.Run("load: duplicate join column", func(t *testing.T) {
		if len(d.JoinIDSets) == 0 {
			t.Fatal("fixture delta indexes no join column")
		}
		p := next("dupjoin.thdb", func(v *Delta) { v.Catalog = lake.NewCatalog() })
		loadFails(t, []string{deltaPath, p}, "re-adds join column")
	})
	t.Run("load: dictionary size mismatch on the second delta", func(t *testing.T) {
		d2, err := BuildDelta(basePath, []string{deltaPath}, nil, []string{added.ID}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d2.BaseDictSize++
		p := filepath.Join(dir, "dict2.thdb")
		if err := d2.SaveFile(p); err != nil {
			t.Fatal(err)
		}
		loadFails(t, []string{deltaPath, p}, "extends a dictionary of")
	})
}

// TestBuildDeltaRejectsCorruptBase sweeps the base snapshot a delta is
// built against: truncation and flipped bytes must surface
// ErrCorruptSnapshot (the version field, bytes 4..5, ErrVersionMismatch)
// and never panic, exactly as LoadFile does over the same bytes.
func TestBuildDeltaRejectsCorruptBase(t *testing.T) {
	basePath, _, _, added := deltaFixture(t)
	good, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(t.TempDir(), "bad.snap")
	buildOn := func(b []byte) error {
		t.Helper()
		if err := os.WriteFile(badPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := BuildDelta(badPath, nil, []*table.Table{added}, nil, Options{})
		return err
	}
	if err := buildOn(good); err != nil {
		t.Fatalf("pristine base: %v", err)
	}
	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(good); n += 997 {
			if err := buildOn(good[:n]); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("truncated to %d bytes: err = %v, want ErrCorruptSnapshot", n, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		bad := make([]byte, len(good))
		for _, off := range append([]int{4, 5}, offsetsEvery(len(good), 1009)...) {
			if off == 6 || off == 7 {
				continue // header flags: reserved, not checked by any reader
			}
			copy(bad, good)
			bad[off] ^= 0x40
			want := ErrCorruptSnapshot
			if off == 4 || off == 5 {
				want = ErrVersionMismatch
			}
			if err := buildOn(bad); !errors.Is(err, want) {
				t.Fatalf("flipped byte at %d: err = %v, want %v", off, err, want)
			}
		}
	})
}

// offsetsEvery returns 0, step, 2·step, ... below n.
func offsetsEvery(n, step int) []int {
	var out []int
	for off := 0; off < n; off += step {
		out = append(out, off)
	}
	return out
}

// TestDeltaSparseTables adds tables that leave some engines with
// nothing to index — one with only numeric columns (no join, TUS,
// SANTOS or D3L column) and one with a single string column (SANTOS
// needs two). Each must build as a delta and merge into the snapshot a
// fresh build over the same tables writes.
func TestDeltaSparseTables(t *testing.T) {
	basePath, _, _, _ := deltaFixture(t)
	dir := filepath.Dir(basePath)
	base, err := LoadFile(basePath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	numeric := table.MustNew("zz_numeric", "numeric only", []*table.Column{
		table.NewColumn("id", []string{"1", "2", "3", "4", "5", "6"}),
		table.NewColumn("score", []string{"0.5", "1.5", "2.5", "3.5", "4.5", "5.5"}),
	})
	single := table.MustNew("zz_single", "one string column", []*table.Column{
		table.NewColumn("name", []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}),
		table.NewColumn("rank", []string{"6", "5", "4", "3", "2", "1"}),
	})
	for _, add := range []*table.Table{numeric, single} {
		t.Run(add.ID, func(t *testing.T) {
			d, err := BuildDelta(basePath, nil, []*table.Table{add}, nil, Options{})
			if err != nil {
				t.Fatalf("BuildDelta: %v", err)
			}
			p := filepath.Join(dir, add.ID+".thdb")
			if err := d.SaveFile(p); err != nil {
				t.Fatal(err)
			}
			merged, err := LoadChainFiles(basePath, []string{p}, Options{})
			if err != nil {
				t.Fatalf("LoadChainFiles: %v", err)
			}
			want := freshSnapshot(t, base, append(base.Catalog.Tables(), add))
			if got := saved(t, merged); !bytes.Equal(got, want) {
				t.Errorf("merged snapshot (%d bytes) differs from a fresh build's (%d bytes)", len(got), len(want))
			}
		})
	}
}

// TestCompactedSnapshotBytesEqualFreshBuild is the merge contract at
// its strictest: compacting a base plus a delta that adds tables and
// tombstones one writes the very bytes a fresh build over the
// surviving tables (the base's model pinned) writes — for a serving
// configuration and for the full pipeline.
func TestCompactedSnapshotBytesEqualFreshBuild(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 11, NumTemplates: 4, TablesPerTemplate: 4})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	curated := gen.BuildKB(0.8)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serving-only", Options{KB: curated, Seed: 3, SkipFuzzy: true, SkipGraph: true, SkipOrganization: true}},
		{"full-pipeline", Options{KB: curated, Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := lake.NewCatalog()
			if err := cat.AddBatch(all[:12]); err != nil {
				t.Fatal(err)
			}
			base, err := Build(cat, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			basePath := filepath.Join(dir, "base.snap")
			if err := base.SaveFile(basePath); err != nil {
				t.Fatal(err)
			}
			victim := all[5]
			d, err := BuildDelta(basePath, nil, all[12:], []string{victim.ID}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dp := filepath.Join(dir, "delta0.thdb")
			if err := d.SaveFile(dp); err != nil {
				t.Fatal(err)
			}
			outPath := filepath.Join(dir, "compacted.snap")
			csys, err := CompactFiles(basePath, []string{dp}, outPath, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var survivors []*table.Table
			for _, tb := range all {
				if tb.ID != victim.ID {
					survivors = append(survivors, tb)
				}
			}
			want := freshSnapshot(t, base, survivors)
			if got := saved(t, csys); !bytes.Equal(got, want) {
				t.Errorf("compacted system saves %d bytes, fresh build %d: not byte-identical", len(got), len(want))
			}
			onDisk, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, want) {
				t.Errorf("compacted file (%d bytes) differs from a fresh build's snapshot (%d bytes)", len(onDisk), len(want))
			}
		})
	}
}

// freshSnapshot builds a system over tables (in sorted-ID order, the
// order a merge uses) with base's build parameters and frozen model,
// and returns its snapshot bytes.
func freshSnapshot(t *testing.T, base *System, tables []*table.Table) []byte {
	t.Helper()
	ordered := append([]*table.Table(nil), tables...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	cat := lake.NewCatalog()
	if err := cat.AddBatch(ordered); err != nil {
		t.Fatal(err)
	}
	opts := base.buildOpts
	opts.Model = base.Model
	fresh, err := Build(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return saved(t, fresh)
}

// saved returns a system's snapshot bytes.
func saved(t *testing.T, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaRejectsCorruption extends the corruption sweep to the delta
// format: truncation at every prefix and a flipped byte at every
// offset must surface ErrCorruptSnapshot (the version field, bytes
// 4..5, surfaces ErrVersionMismatch instead) — never a panic or a
// silent success.
func TestDeltaRejectsCorruption(t *testing.T) {
	_, deltaPath, _, _ := deltaFixture(t)
	good, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDelta(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine delta fails to load: %v", err)
	}

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(good); n += 97 {
			if _, err := LoadDelta(bytes.NewReader(good[:n])); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("truncated to %d bytes: err = %v, want ErrCorruptSnapshot", n, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte{}, good...), 0xFF)
		if _, err := LoadDelta(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("err = %v, want ErrCorruptSnapshot", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[4] = 0xEE
		if _, err := LoadDelta(bytes.NewReader(bad)); !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("err = %v, want ErrVersionMismatch", err)
		}
	})
	t.Run("v2 header", func(t *testing.T) {
		// A delta written before the engine sections followed the parts
		// codecs: stale, not damaged, and the message names both versions.
		bad := append([]byte{}, good...)
		bad[4], bad[5] = 2, 0
		_, err := LoadDelta(bytes.NewReader(bad))
		if !errors.Is(err, ErrVersionMismatch) || errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("err = %v, want ErrVersionMismatch alone", err)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, "expected 3") {
			t.Errorf("err %q does not name versions 2 and 3", msg)
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		bad := make([]byte, len(good))
		for off := 0; off < len(good); off += 101 {
			if off == 4 || off == 5 {
				continue // version bytes: ErrVersionMismatch, pinned above
			}
			copy(bad, good)
			bad[off] ^= 0x40
			if _, err := LoadDelta(bytes.NewReader(bad)); err == nil {
				t.Fatalf("flipped byte at %d: LoadDelta succeeded", off)
			} else if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("flipped byte at %d: err = %v, want ErrCorruptSnapshot", off, err)
			}
		}
	})
}

// mutateTable returns a deep copy of src with one value changed — same
// ID, same shape, different content.
func mutateTable(t *testing.T, src *table.Table) *table.Table {
	t.Helper()
	cols := make([]*table.Column, len(src.Columns))
	for i, c := range src.Columns {
		cols[i] = &table.Column{Name: c.Name, Type: c.Type, Values: append([]string(nil), c.Values...)}
	}
	cols[0].Values[0] += "-mutated"
	nt, err := table.New(src.ID, src.Name, cols)
	if err != nil {
		t.Fatal(err)
	}
	nt.Description = src.Description
	nt.Tags = src.Tags
	return nt
}

// TestReplaceDeltaChangesGeneration pins the content-folded generation
// contract: a replace delta (remove + add under the same table ID with
// different contents) must change the generation, because the serving
// tier keys its query cache on it — a membership-only hash would let a
// replace serve stale cached results. Re-adding bit-identical content
// is the one case where the generation may revert: the data really is
// equivalent, so surviving cache entries are still correct.
func TestReplaceDeltaChangesGeneration(t *testing.T) {
	gen := datagen.Generate(datagen.Config{Seed: 9, NumTemplates: 2, TablesPerTemplate: 2})
	all := append([]*table.Table(nil), gen.Tables...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	cat := lake.NewCatalog()
	if err := cat.AddBatch(all); err != nil {
		t.Fatal(err)
	}
	base, err := Build(cat, Options{KB: gen.BuildKB(0.8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.snap")
	if err := base.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	baseGen := base.Generation()
	victim := all[0]
	mut := mutateTable(t, victim)

	// Replace with different content: new generation.
	repl, err := BuildDelta(basePath, nil, []*table.Table{mut}, []string{victim.ID}, Options{})
	if err != nil {
		t.Fatalf("BuildDelta(replace): %v", err)
	}
	if repl.ParentGen != baseGen {
		t.Fatalf("replace delta ParentGen %016x, want base %016x", repl.ParentGen, baseGen)
	}
	if repl.ResultGen == baseGen {
		t.Fatal("replacing a table's contents left the generation unchanged; the serving cache would keep stale results")
	}
	rp := filepath.Join(dir, "replace.thdb")
	if err := repl.SaveFile(rp); err != nil {
		t.Fatal(err)
	}
	merged, err := LoadChainFiles(basePath, []string{rp}, Options{})
	if err != nil {
		t.Fatalf("LoadChainFiles(replace): %v", err)
	}
	if merged.Generation() == baseGen {
		t.Fatal("merged replace system reports the base generation")
	}

	// Replace with identical content: generation reverts (equivalent
	// data), by design.
	same, err := BuildDelta(basePath, nil, []*table.Table{victim}, []string{victim.ID}, Options{})
	if err != nil {
		t.Fatalf("BuildDelta(identical replace): %v", err)
	}
	if same.ResultGen != baseGen {
		t.Errorf("identical replace changed the generation: %016x != %016x", same.ResultGen, baseGen)
	}

	// Remove then re-add with different content across two deltas: the
	// final generation must not revert to the base's.
	d1, err := BuildDelta(basePath, nil, nil, []string{victim.ID}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1 := filepath.Join(dir, "remove.thdb")
	if err := d1.SaveFile(p1); err != nil {
		t.Fatal(err)
	}
	d2, err := BuildDelta(basePath, []string{p1}, []*table.Table{mut}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.ResultGen == baseGen {
		t.Fatal("remove-then-re-add with different content reverted to the base generation")
	}
	// ... while re-adding the original bytes does revert.
	d2same, err := BuildDelta(basePath, []string{p1}, []*table.Table{victim}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2same.ResultGen != baseGen {
		t.Errorf("re-adding identical content did not revert the generation: %016x != %016x", d2same.ResultGen, baseGen)
	}
}

// TestLoadChainSkipsFoldedDeltas pins crash-safe compaction
// retirement: a compaction interrupted (or whose retirement renames
// failed) between installing the folded base and renaming the consumed
// delta files leaves deltas on disk that are already inside the base.
// Loaders must skip that folded prefix — reporting it via
// Lineage.Folded — instead of failing with ErrDeltaChain and stranding
// the daemon until manual cleanup.
func TestLoadChainSkipsFoldedDeltas(t *testing.T) {
	basePath, deltaPath, _, added := deltaFixture(t)
	dir := filepath.Dir(deltaPath)

	// Fold the chain into the base in place, as the daemon compactor
	// does — but "crash" before retiring the delta file.
	compacted, err := CompactFiles(basePath, []string{deltaPath}, basePath, Options{})
	if err != nil {
		t.Fatalf("CompactFiles: %v", err)
	}

	// The stale delta still in the spec must be skipped, not fatal.
	sys, err := LoadChainFiles(basePath, []string{deltaPath}, Options{})
	if err != nil {
		t.Fatalf("LoadChainFiles over a folded delta: %v", err)
	}
	if sys.Lineage.Depth() != 0 {
		t.Errorf("depth = %d, want 0 (delta already folded)", sys.Lineage.Depth())
	}
	if len(sys.Lineage.Folded) != 1 || sys.Lineage.Folded[0] != deltaPath {
		t.Errorf("Lineage.Folded = %v, want [%s]", sys.Lineage.Folded, deltaPath)
	}
	if sys.Generation() != compacted.Generation() {
		t.Errorf("generation %016x, want compacted %016x", sys.Generation(), compacted.Generation())
	}
	if sys.Catalog.Table(added.ID) == nil {
		t.Errorf("folded table %q missing from the catalog", added.ID)
	}
	// With nothing left to apply the base is the system returned, so it
	// must have run the rebuild-on-load half a merge would have run for
	// it: same derived indexes, same answers as a plain LoadFile.
	if sys.Stats == nil || sys.Fuzzy == nil {
		t.Fatalf("fully folded chain load skipped the rebuild-on-load stages: Stats %v, Fuzzy %v",
			sys.Stats != nil, sys.Fuzzy != nil)
	}
	plain, err := LoadFile(basePath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys.Stats, plain.Stats) {
		t.Errorf("catalog stats over a folded chain differ from LoadFile's")
	}
	for _, c := range added.Columns {
		got, _ := sys.Fuzzy.Search(c.Values, 0.85, 0.5)
		want, _ := plain.Fuzzy.Search(c.Values, 0.85, 0.5)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Fuzzy.Search(%s) over a folded chain differs from LoadFile", c.Name)
		}
	}

	// BuildDelta over the same stale spec must chain onto the folded
	// base, so `lakectl add` keeps working after the interrupted
	// compaction.
	d2, err := BuildDelta(basePath, []string{deltaPath}, nil, []string{added.ID}, Options{})
	if err != nil {
		t.Fatalf("BuildDelta over a folded delta: %v", err)
	}
	if d2.ParentGen != compacted.Generation() {
		t.Errorf("new delta ParentGen %016x, want folded base %016x", d2.ParentGen, compacted.Generation())
	}
	p2 := filepath.Join(dir, "d2.thdb")
	if err := d2.SaveFile(p2); err != nil {
		t.Fatal(err)
	}

	// Partial prefix: the stale folded delta followed by a live one —
	// skip the first, apply the second.
	sys2, err := LoadChainFiles(basePath, []string{deltaPath, p2}, Options{})
	if err != nil {
		t.Fatalf("LoadChainFiles(folded + live): %v", err)
	}
	if sys2.Lineage.Depth() != 1 || len(sys2.Lineage.Folded) != 1 {
		t.Errorf("depth = %d, folded = %v, want 1 and one folded path", sys2.Lineage.Depth(), sys2.Lineage.Folded)
	}
	if sys2.Catalog.Table(added.ID) != nil {
		t.Errorf("table %q survives its tombstone after the folded prefix", added.ID)
	}

	// A genuinely mismatched delta must still fail: folded-prefix
	// skipping only accepts chains that end exactly at the base's
	// generation.
	bad, err := LoadDeltaFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	bad.ParentGen ^= 1
	bad.ResultGen ^= 1
	bp := filepath.Join(dir, "bad.thdb")
	if err := bad.SaveFile(bp); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChainFiles(basePath, []string{bp}, Options{}); !errors.Is(err, ErrDeltaChain) {
		t.Errorf("mismatched delta: err = %v, want ErrDeltaChain", err)
	}
}

// TestDeltaPartsRoundTrip pins every engine's parts codec through the
// delta format: a delta read back from its own bytes is DeepEqual to
// the one written, for an add, a remove-only delta (no table in any
// engine section) and a numeric-only add (no TUS, SANTOS or D3L parts).
func TestDeltaPartsRoundTrip(t *testing.T) {
	basePath, deltaPath, add, added := deltaFixture(t)
	removeOnly, err := BuildDelta(basePath, []string{deltaPath}, nil, []string{added.ID}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	numeric := table.MustNew("zz_numeric", "numeric only", []*table.Column{
		table.NewColumn("id", []string{"1", "2", "3", "4", "5", "6"}),
		table.NewColumn("score", []string{"0.5", "1.5", "2.5", "3.5", "4.5", "5.5"}),
	})
	numericOnly, err := BuildDelta(basePath, nil, []*table.Table{numeric}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(removeOnly.JoinIDSets) + len(removeOnly.TUS) + len(removeOnly.Santos) + len(removeOnly.D3L) + len(removeOnly.Starmie); n != 0 {
		t.Fatalf("remove-only delta carries %d engine parts", n)
	}
	if n := len(numericOnly.TUS) + len(numericOnly.Santos) + len(numericOnly.D3L); n != 0 || len(numericOnly.Starmie) != 1 {
		t.Fatalf("numeric-only delta: %d TUS/SANTOS/D3L parts, %d Starmie parts; want 0 and 1", n, len(numericOnly.Starmie))
	}
	for _, tc := range []struct {
		name string
		d    *Delta
	}{{"add", add}, {"remove-only", removeOnly}, {"numeric-only", numericOnly}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := LoadDelta(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"join", got.JoinIDSets, tc.d.JoinIDSets},
				{"TUS", got.TUS, tc.d.TUS},
				{"SANTOS", got.Santos, tc.d.Santos},
				{"D3L", got.D3L, tc.d.D3L},
				{"Starmie", got.Starmie, tc.d.Starmie},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s parts differ after a round trip:\ngot  %+v\nwant %+v", f.name, f.got, f.want)
				}
			}
			// A catalog is compared by its encoding: its columns cache
			// value statistics lazily, which no codec carries.
			if g, w := catalogBytes(got.Catalog), catalogBytes(tc.d.Catalog); !bytes.Equal(g, w) {
				t.Errorf("catalog differs after a round trip")
			}
			rest := *got
			rest.Catalog = tc.d.Catalog
			if !reflect.DeepEqual(&rest, tc.d) {
				t.Errorf("delta differs after a round trip:\ngot  %+v\nwant %+v", &rest, tc.d)
			}
		})
	}
}

// catalogBytes returns a catalog's snapshot encoding.
func catalogBytes(c *lake.Catalog) []byte {
	var e snap.Encoder
	c.AppendSnapshot(&e)
	return e.Bytes()
}
