package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/lake"
	"tablehound/internal/vecstore"
)

// vecLake builds one system over a moderate synthetic lake.
func vecLake(t *testing.T) (*System, *datagen.Lake) {
	t.Helper()
	gen := datagen.Generate(datagen.Config{
		Seed:              131,
		NumDomains:        12,
		DomainSize:        60,
		NumTemplates:      5,
		TablesPerTemplate: 4,
	})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cat, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

// TestSnapshotLoadFileVecModes pins the file-loading matrix: the heap
// and mmap materializations of one snapshot must answer identically to
// the built system, and "mmap"/"auto" must actually map
// on platforms that support it.
func TestSnapshotLoadFileVecModes(t *testing.T) {
	built, gen := vecLake(t)
	path := filepath.Join(t.TempDir(), "sys.snap")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, loaded *System) {
		t.Helper()
		if got, want := loaded.Vecs.BlobCRC(), built.Vecs.BlobCRC(); got != want {
			t.Fatalf("blob CRC %08x, want %08x", got, want)
		}
		for _, q := range gen.Tables[:6] {
			got, err := loaded.Starmie.SearchTables(context.Background(), q, 5, 64, true)
			want, werr := built.Starmie.SearchTables(context.Background(), q, 5, 64, true)
			if err != nil || werr != nil {
				t.Fatalf("starmie %s: errs %v / %v", q.ID, err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("starmie tables %s:\nloaded %+v\nbuilt  %+v", q.ID, got, want)
			}
			gotU, err := loaded.UnionableTables(q, 5)
			wantU, werr := built.UnionableTables(q, 5)
			if err != nil || werr != nil || !reflect.DeepEqual(gotU, wantU) {
				t.Fatalf("tus %s:\nloaded %+v (%v)\nbuilt  %+v (%v)", q.ID, gotU, err, wantU, werr)
			}
		}
		for _, key := range built.Starmie.ColumnKeys()[:20] {
			v := built.Starmie.VectorOf(key)
			if got, want := loaded.Starmie.SearchColumns(v, 10, 0, true), built.Starmie.SearchColumns(v, 10, 0, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("vsearch %s:\nloaded %+v\nbuilt  %+v", key, got, want)
			}
		}
		vals := gen.Tables[0].Columns[0].Values
		gotF, _ := loaded.Fuzzy.Search(vals, 0.85, 0.5)
		wantF, _ := built.Fuzzy.Search(vals, 0.85, 0.5)
		if !reflect.DeepEqual(gotF, wantF) {
			t.Fatalf("fuzzy:\nloaded %+v\nbuilt  %+v", gotF, wantF)
		}
	}

	t.Run("heap", func(t *testing.T) {
		loaded, err := LoadFile(path, Options{VecMode: "heap"})
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Vecs.Mapped() {
			t.Error("VecMode heap produced a mapped store")
		}
		check(t, loaded)
	})
	t.Run("mmap", func(t *testing.T) {
		if !vecstore.MmapSupported() {
			if _, err := LoadFile(path, Options{VecMode: "mmap"}); err == nil {
				t.Fatal("VecMode mmap succeeded on an unsupported platform")
			}
			t.Skip("mmap unsupported on this platform")
		}
		loaded, err := LoadFile(path, Options{VecMode: "mmap"})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Vecs.Close()
		if !loaded.Vecs.Mapped() {
			t.Error("VecMode mmap produced an unmapped store")
		}
		check(t, loaded)
	})
	t.Run("auto", func(t *testing.T) {
		loaded, err := LoadFile(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Vecs.Close()
		if loaded.Vecs.Mapped() != vecstore.MmapSupported() {
			t.Errorf("auto mode: Mapped() = %v, MmapSupported() = %v", loaded.Vecs.Mapped(), vecstore.MmapSupported())
		}
		check(t, loaded)
	})
	t.Run("unknown mode", func(t *testing.T) {
		if _, err := LoadFile(path, Options{VecMode: "madvise"}); err == nil {
			t.Fatal("unknown VecMode accepted")
		}
	})
}

// TestModelSharesVecStoreRows pins the rebinding contract: after Build
// and after Load, the model's token vectors and the Starmie index's
// column vectors are the store's own rows (same backing array), not
// copies — that aliasing is what makes mmap sharing effective.
func TestModelSharesVecStoreRows(t *testing.T) {
	sys, _ := vecLake(t)
	mv, ok := sys.Vecs.View("model")
	if !ok {
		t.Fatal("no model segment")
	}
	toks := sys.Model.Tokens()
	if mv.Len() != len(toks) {
		t.Fatalf("model segment has %d rows, vocab %d", mv.Len(), len(toks))
	}
	for i, tok := range toks {
		row := mv.Vec(i)
		got := sys.Model.TokenVector(tok)
		if &got[0] != &row[0] {
			t.Fatalf("token %q vector is a copy, not a store row", tok)
		}
	}
	sv, ok := sys.Vecs.View("starmie")
	if !ok {
		t.Fatal("no starmie segment")
	}
	for i, key := range sys.Starmie.ColumnKeys() {
		row := sv.Vec(i)
		got := sys.Starmie.VectorOf(key)
		if &got[0] != &row[0] {
			t.Fatalf("column %q vector is a copy, not a store row", key)
		}
		if got.Norm() != sv.Norm(i) {
			t.Fatalf("column %q stored norm %v != computed %v", key, sv.Norm(i), got.Norm())
		}
	}
	// The stored norms must make the precomputed cosine bit-identical
	// to the from-scratch one.
	a := embedding.Vector(sv.Vec(0))
	b := embedding.Vector(sv.Vec(1))
	if got, want := embedding.CosineWithNorms(a, b, sv.Norm(0), sv.Norm(1)), embedding.Cosine(a, b); got != want {
		t.Fatalf("CosineWithNorms %v != Cosine %v", got, want)
	}
}
