// Package union implements unionable table search (Section 2.5 of the
// tutorial): given a query table, find data-lake tables whose tuples
// could extend it. Two systems are provided:
//
//   - TUS (Nargesian et al., VLDB 2018): column-level unionability
//     under three measures — set overlap significance, ontology-based
//     semantic similarity, and embedding-based natural-language
//     similarity — plus their ensemble, aggregated to table level by
//     maximum-weight bipartite matching of column alignments.
//   - SANTOS (Khatiwada et al., SIGMOD 2023): relationship-aware
//     search that also requires the binary relationships between
//     column pairs to align, using a curated KB where it covers the
//     values and a KB synthesized from the lake elsewhere.
package union

import (
	"slices"
	"sort"

	"tablehound/internal/table"
)

// Result is one ranked unionable table.
type Result struct {
	TableID string
	Score   float64
}

// Measure selects the TUS column-unionability measure.
type Measure int

// TUS measures. Ensemble takes the maximum of the three.
const (
	SetMeasure Measure = iota
	SemMeasure
	NLMeasure
	EnsembleMeasure
)

func (m Measure) String() string {
	switch m {
	case SetMeasure:
		return "set"
	case SemMeasure:
		return "sem"
	case NLMeasure:
		return "nl"
	case EnsembleMeasure:
		return "ensemble"
	}
	return "unknown"
}

// stringColumns returns the text-like columns union search aligns.
func stringColumns(t *table.Table) []*table.Column {
	var out []*table.Column
	for _, c := range t.Columns {
		if isStringColumn(c) {
			out = append(out, c)
		}
	}
	return out
}

// TUSIndexes reports whether a TUSBuilder indexes a table: it has a
// string column.
func TUSIndexes(t *table.Table) bool { return slices.ContainsFunc(t.Columns, isStringColumn) }

// D3LIndexes reports whether a D3LBuilder indexes a table: it has a
// string column.
func D3LIndexes(t *table.Table) bool { return slices.ContainsFunc(t.Columns, isStringColumn) }

// SantosIndexes reports whether a SantosBuilder indexes a table: it
// has an intent column and a string column to relate it to.
func SantosIndexes(t *table.Table) bool { return len(stringColumns(t)) >= 2 }

func isStringColumn(c *table.Column) bool {
	return (c.Type == table.TypeString || c.Type == table.TypeDate || c.Type == table.TypeUnknown) && c.Cardinality() >= 2
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].TableID < rs[j].TableID
	})
}
