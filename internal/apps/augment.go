// Package apps implements the data-science applications of table
// discovery the tutorial surveys (Section 2.7): ARDA-style feature
// augmentation for machine learning, training-set discovery via union
// search, homograph detection over the lake's value graph (DomainNet),
// and table stitching for knowledge-base completion.
package apps

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"tablehound/internal/join"
	"tablehound/internal/metrics"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// Feature is one augmentation feature discovered in the lake.
type Feature struct {
	// Source identifies the lake column ("tableID.column") providing
	// the feature values.
	Source string
	// Values are row-aligned with the base table (NaN when the join
	// key had no match).
	Values []float64
	// Score is the feature-selection score (absolute correlation with
	// the target on matched rows).
	Score float64
	// Coverage is the fraction of base rows with a join match.
	Coverage float64
}

// Augmenter performs ARDA-style automatic relational data
// augmentation: join the base table against lake tables discovered by
// joinable search, harvest their numeric columns as candidate
// features, and keep those that correlate with the prediction target.
type Augmenter struct {
	engine *join.Engine
	// lookup returns a lake table by ID.
	lookup func(id string) *table.Table
}

// NewAugmenter wires an augmenter over a join engine and a table
// resolver.
func NewAugmenter(engine *join.Engine, lookup func(id string) *table.Table) *Augmenter {
	return &Augmenter{engine: engine, lookup: lookup}
}

// Discover finds up to maxFeatures numeric features for the base
// table: key is the join column name, target the numeric prediction
// target column name. minCoverage drops features joining too few rows.
func (a *Augmenter) Discover(base *table.Table, key, target string, maxFeatures int, minCoverage float64) ([]Feature, error) {
	keyCol := base.Column(key)
	if keyCol == nil {
		return nil, fmt.Errorf("apps: base table has no column %q", key)
	}
	targetCol := base.Column(target)
	if targetCol == nil {
		return nil, fmt.Errorf("apps: base table has no column %q", target)
	}
	y := columnFloats(targetCol)
	// Joinable tables by key overlap.
	matches, _, err := a.engine.TopKOverlap(context.TODO(), a.engine.EncodeQuery(keyCol.Values), 20, nil)
	if err != nil {
		return nil, err
	}
	var feats []Feature
	seenTables := make(map[string]bool)
	for _, m := range matches {
		tid, joinCol := table.SplitColumnKey(m.ColumnKey)
		if seenTables[tid] {
			continue
		}
		seenTables[tid] = true
		lakeTable := a.lookup(tid)
		if lakeTable == nil || lakeTable.ID == base.ID {
			continue
		}
		feats = append(feats, a.harvest(base, keyCol, y, lakeTable, joinCol, minCoverage)...)
	}
	sort.Slice(feats, func(i, j int) bool {
		if feats[i].Score != feats[j].Score {
			return feats[i].Score > feats[j].Score
		}
		return feats[i].Source < feats[j].Source
	})
	if len(feats) > maxFeatures {
		feats = feats[:maxFeatures]
	}
	return feats, nil
}

// harvest left-joins base to lakeTable on joinCol and extracts every
// numeric column as a candidate feature.
func (a *Augmenter) harvest(base *table.Table, keyCol *table.Column, y []float64, lakeTable *table.Table, joinCol string, minCoverage float64) []Feature {
	jc := lakeTable.Column(joinCol)
	if jc == nil {
		return nil
	}
	// Key -> first row index in the lake table.
	keyRow := make(map[string]int, jc.Len())
	for r, v := range jc.Values {
		n := tokenize.Normalize(v)
		if n == "" {
			continue
		}
		if _, dup := keyRow[n]; !dup {
			keyRow[n] = r
		}
	}
	var out []Feature
	for _, c := range lakeTable.Columns {
		if !c.Type.IsNumeric() {
			continue
		}
		vals := make([]float64, keyCol.Len())
		matched := 0
		var xs, ys []float64
		for r, kv := range keyCol.Values {
			vals[r] = math.NaN()
			lr, ok := keyRow[tokenize.Normalize(kv)]
			if !ok {
				continue
			}
			f, err := parseFloat(c.Values[lr])
			if err != nil {
				continue
			}
			vals[r] = f
			matched++
			if r < len(y) && !math.IsNaN(y[r]) {
				xs = append(xs, f)
				ys = append(ys, y[r])
			}
		}
		coverage := float64(matched) / float64(keyCol.Len())
		if coverage < minCoverage || len(xs) < 3 {
			continue
		}
		score := math.Abs(metrics.Pearson(xs, ys))
		out = append(out, Feature{
			Source:   table.ColumnKey(lakeTable.ID, c.Name),
			Values:   vals,
			Score:    score,
			Coverage: coverage,
		})
	}
	return out
}

// Apply appends the features to a copy of the base table (missing
// values become empty strings), returning the augmented table.
func Apply(base *table.Table, feats []Feature) (*table.Table, error) {
	cols := make([]*table.Column, 0, base.NumCols()+len(feats))
	cols = append(cols, base.Columns...)
	for i, f := range feats {
		if len(f.Values) != base.NumRows() {
			return nil, errors.New("apps: feature not row-aligned with base")
		}
		vals := make([]string, len(f.Values))
		for r, v := range f.Values {
			if !math.IsNaN(v) {
				vals[r] = fmt.Sprintf("%g", v)
			}
		}
		cols = append(cols, table.NewColumn(fmt.Sprintf("feat_%d_%s", i, f.Source), vals))
	}
	return table.New(base.ID+"_augmented", base.Name+" (augmented)", cols)
}

func columnFloats(c *table.Column) []float64 {
	out := make([]float64, c.Len())
	for i, v := range c.Values {
		f, err := parseFloat(v)
		if err != nil {
			out[i] = math.NaN()
			continue
		}
		out[i] = f
	}
	return out
}

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}
