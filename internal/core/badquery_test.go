package core

import (
	"context"
	"errors"
	"testing"

	"tablehound/internal/table"
	"tablehound/internal/union"
)

// TestBadQueriesReturnTypedError is the contract behind the serving
// layer's HTTP 400 mapping: every query surface reports an unusable
// query by wrapping table.ErrBadQuery instead of silently returning
// empty results.
func TestBadQueriesReturnTypedError(t *testing.T) {
	sys, _ := demoSystem(t)

	checks := []struct {
		name string
		run  func() error
	}{
		{"KeywordSearch empty", func() error { _, err := sys.KeywordSearch("", 5); return err }},
		{"KeywordSearch whitespace", func() error { _, err := sys.KeywordSearch("   \t\n", 5); return err }},
		{"ValueSearch empty", func() error { _, err := sys.ValueSearch(" ", 5); return err }},
		{"JoinableColumns nil", func() error { _, err := sys.JoinableColumns(nil, 5); return err }},
		{"JoinableColumns whitespace values", func() error {
			_, err := sys.JoinableColumns([]string{"", "  ", "\t"}, 5)
			return err
		}},
		{"ContainmentSearch empty", func() error { _, err := sys.ContainmentSearch(nil, 0.5, 5); return err }},
		{"UnionableTables no string columns", func() error {
			_, err := sys.UnionableTables(table.MustNew("q", "q", nil), 5)
			return err
		}},
		{"Santos unusable table", func() error {
			_, err := sys.Santos.Search(context.Background(), table.MustNew("q", "q", nil), 5, union.Hybrid)
			return err
		}},
		{"Starmie empty table", func() error {
			_, err := sys.Starmie.SearchTables(context.Background(), table.MustNew("q", "q", nil), 5, 64, false)
			return err
		}},
		{"D3L unusable table", func() error {
			_, err := sys.D3L.Search(context.Background(), table.MustNew("q", "q", nil), 5)
			return err
		}},
	}
	for _, c := range checks {
		err := c.run()
		if err == nil {
			t.Errorf("%s: want error wrapping table.ErrBadQuery, got nil", c.name)
			continue
		}
		if !errors.Is(err, table.ErrBadQuery) {
			t.Errorf("%s: err = %v, does not wrap table.ErrBadQuery", c.name, err)
		}
	}

	// Sane queries still work after the validation path.
	if _, err := sys.KeywordSearch("data", 5); err != nil {
		t.Errorf("valid keyword query failed: %v", err)
	}
}
