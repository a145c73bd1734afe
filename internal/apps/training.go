package apps

import (
	"context"
	"fmt"

	"tablehound/internal/table"
	"tablehound/internal/union"
)

// TrainingSetResult is the outcome of training-set discovery.
type TrainingSetResult struct {
	// Combined is the seed table extended with harvested rows.
	Combined *table.Table
	// Sources lists the lake tables rows were harvested from.
	Sources []string
	// RowsAdded counts harvested rows.
	RowsAdded int
}

// tableSearcher is the slice of union search the harvester needs.
type tableSearcher interface {
	Search(ctx context.Context, query *table.Table, k int, m union.Measure) ([]union.Result, error)
}

// DiscoverTrainingSet grows a labeled seed table with rows from
// unionable lake tables (Section 2.7: data lakes as a source of
// training data). Lake tables are retrieved with TUS, their columns
// aligned to the seed by name, and rows appended. minScore gates how
// unionable a source must be.
func DiscoverTrainingSet(seed *table.Table, tus tableSearcher, lookup func(string) *table.Table, k int, measure union.Measure, minScore float64) (*TrainingSetResult, error) {
	res, err := tus.Search(context.TODO(), seed, k, measure)
	if err != nil {
		return nil, err
	}
	header := seed.Header()
	vals := make([][]string, len(header))
	for i, c := range seed.Columns {
		vals[i] = append(vals[i], c.Values...)
	}
	out := &TrainingSetResult{}
	for _, r := range res {
		if r.Score < minScore {
			continue
		}
		src := lookup(r.TableID)
		if src == nil {
			continue
		}
		idx := make([]int, len(header))
		usable := 0
		for i, h := range header {
			idx[i] = src.ColumnIndex(h)
			if idx[i] >= 0 {
				usable++
			}
		}
		// Require alignment on most of the schema; harvesting rows
		// with mostly missing cells hurts more than it helps.
		if usable*2 < len(header) {
			continue
		}
		for row := 0; row < src.NumRows(); row++ {
			for i := range header {
				if idx[i] >= 0 {
					vals[i] = append(vals[i], src.Columns[idx[i]].Values[row])
				} else {
					vals[i] = append(vals[i], "")
				}
			}
			out.RowsAdded++
		}
		out.Sources = append(out.Sources, r.TableID)
	}
	cols := make([]*table.Column, len(header))
	for i, h := range header {
		cols[i] = table.NewColumn(h, vals[i])
	}
	combined, err := table.New(seed.ID+"_extended", fmt.Sprintf("%s (+%d rows)", seed.Name, out.RowsAdded), cols)
	if err != nil {
		return nil, err
	}
	out.Combined = combined
	return out, nil
}
