package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/union"
)

// fuzzBase is the snapshot FuzzLoadSection forges sections into: a
// four-table lake built with every stage, so the organization and graph
// sections carry state too.
var fuzzBase = sync.OnceValues(func() ([]byte, error) {
	gen := datagen.Generate(datagen.Config{Seed: 5, NumDomains: 6, DomainSize: 20, NumTemplates: 2, TablesPerTemplate: 2, RowsMin: 8, RowsMax: 12})
	cat := lake.NewCatalog()
	if err := cat.AddBatch(gen.Tables); err != nil {
		return nil, err
	}
	sys, err := Build(cat, Options{Seed: 3, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = sys.Save(&buf)
	return buf.Bytes(), err
})

// FuzzLoadSection replaces one section payload of a valid snapshot with
// the fuzzer's bytes, re-framed under a valid checksum, and loads it.
// The contract: Load succeeds or fails with ErrCorruptSnapshot, and
// never panics; a system that loads answers one query per engine
// without panicking. The committed seeds under testdata/fuzz are every
// real section of fuzzBase, which plain `go test` replays.
func FuzzLoadSection(f *testing.F) {
	f.Fuzz(func(t *testing.T, id uint16, payload []byte) {
		good, err := fuzzBase()
		if err != nil {
			t.Fatal(err)
		}
		sec := secOptions + id%secVecs
		forged := withSection(t, good, sec, func([]byte) []byte { return payload })
		sys, err := Load(bytes.NewReader(forged), Options{Parallelism: 1})
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("section %d: err = %v, want ErrCorruptSnapshot", sec, err)
			}
			return
		}
		queryEveryEngine(sys)
	})
}

// queryEveryEngine runs one query against each engine of sys, seeded
// from its first table, ignoring answers and errors: only a panic
// fails.
func queryEveryEngine(s *System) {
	ctx := context.Background()
	tables := s.Catalog.Tables()
	if len(tables) == 0 {
		return
	}
	q := tables[0]
	var values []string
	if len(q.Columns) > 0 {
		values = q.Columns[0].Values
	}
	s.KeywordSearch(q.Name+" "+q.ID, 5)
	if len(values) > 0 {
		s.ValueSearch(values[0], 5)
	}
	s.JoinableColumns(values, 5)
	s.ContainmentSearch(values, 0.5, 5)
	s.TUS.Search(ctx, q, 5, union.EnsembleMeasure)
	s.Santos.Search(ctx, q, 5, union.Hybrid)
	s.D3L.Search(ctx, q, 5)
	s.Starmie.SearchTables(ctx, q, 5, 64, false)
	if s.Fuzzy != nil {
		s.Fuzzy.Search(values, 0.85, 0.5)
	}
	if s.Org != nil {
		s.Navigate(q.Name)
	}
	s.JoinPath(q.ID, tables[len(tables)-1].ID, 3)
	s.Stats.CountRows(1, 100)
	s.Save(io.Discard)
}
