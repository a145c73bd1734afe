// Catalog statistics for the discover planner's cost model: per-table
// shape distributions and document frequencies of column names and
// inferred types, a pure function of the catalog computed at build and
// again at every load (one pass over the tables; never stored). The
// planner estimates each prefilter's selectivity from this block (plus
// the postings lengths already stored in the keyword and join indexes)
// without touching table contents at query time.
package core

import (
	"sort"

	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// CatalogStats summarizes the catalog for selectivity estimation.
// All counts are exact (the catalog is frozen at build time), so
// estimates over a single predicate factor are exact too; only the
// independence assumption across ANDed factors is approximate.
type CatalogStats struct {
	// Tables is the table count N.
	Tables int
	// Columns is the total column count across the lake.
	Columns int
	// Rows and Cols hold one entry per table — row and column counts —
	// sorted ascending, so range predicates answer by binary search.
	Rows []int
	Cols []int
	// ColNames maps each normalized column name to the number of
	// tables with at least one column of that name (the same
	// normalization the meta prefilter matches with).
	ColNames map[string]int
	// Types maps each inferred column type to the number of tables
	// with at least one column of that type.
	Types map[table.Type]int
}

// BuildCatalogStats computes the stats block over a table set.
func BuildCatalogStats(tables []*table.Table) *CatalogStats {
	cs := &CatalogStats{
		Tables:   len(tables),
		Rows:     make([]int, 0, len(tables)),
		Cols:     make([]int, 0, len(tables)),
		ColNames: make(map[string]int),
		Types:    make(map[table.Type]int),
	}
	for _, t := range tables {
		cs.Columns += t.NumCols()
		cs.Rows = append(cs.Rows, t.NumRows())
		cs.Cols = append(cs.Cols, t.NumCols())
		names := make(map[string]bool, t.NumCols())
		types := make(map[table.Type]bool)
		for _, c := range t.Columns {
			names[tokenize.Normalize(c.Name)] = true
			types[c.Type] = true
		}
		for n := range names {
			cs.ColNames[n]++
		}
		for ty := range types {
			cs.Types[ty]++
		}
	}
	sort.Ints(cs.Rows)
	sort.Ints(cs.Cols)
	return cs
}

// countRange counts entries of a sorted slice inside [min, max];
// min <= 0 means unbounded below, max <= 0 unbounded above.
func countRange(sorted []int, min, max int) int {
	lo := 0
	if min > 0 {
		lo = sort.SearchInts(sorted, min)
	}
	hi := len(sorted)
	if max > 0 {
		hi = sort.SearchInts(sorted, max+1)
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// CountRows returns how many tables have a row count in [min, max]
// (0 bounds mean unconstrained, matching the predicate convention).
func (cs *CatalogStats) CountRows(min, max int) int { return countRange(cs.Rows, min, max) }

// CountCols returns how many tables have a column count in [min, max].
func (cs *CatalogStats) CountCols(min, max int) int { return countRange(cs.Cols, min, max) }

// CountColName returns how many tables have a column whose normalized
// name matches the given raw name.
func (cs *CatalogStats) CountColName(name string) int {
	return cs.ColNames[tokenize.Normalize(name)]
}

// CountType returns how many tables have at least one column of the
// inferred type.
func (cs *CatalogStats) CountType(t table.Type) int { return cs.Types[t] }
