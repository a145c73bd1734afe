package join

import (
	"errors"
	"sort"

	"tablehound/internal/invindex"
	"tablehound/internal/josie"
	"tablehound/internal/metrics"
	"tablehound/internal/sketch"
	"tablehound/internal/tokenize"
)

// CorrMatch is one correlated-column hit: a (key column, numeric
// column) pair whose numeric values correlate with the query's after
// joining on the key.
type CorrMatch struct {
	ColumnKey   string  // key of the (keyCol, numCol) pair, "table.key|num"
	QCROverlap  int     // shared QCR tokens (sketch evidence)
	Correlation float64 // exact Pearson on the joined keys (when verified)
}

// CorrEngine indexes keyed numeric columns by their QCR tokens so
// "find columns correlated with mine" becomes top-k overlap search —
// the sketch-based index of Santos et al. (ICDE 2022).
type CorrEngine struct {
	sketchSize int
	inv        *invindex.Index
	searcher   *josie.Searcher
	data       map[string]map[string]float64 // pairKey -> key -> value
}

// CorrBuilder stages keyed numeric columns.
type CorrBuilder struct {
	sketchSize int
	tokens     map[string][]string
	data       map[string]map[string]float64
	order      []string
}

// NewCorrBuilder creates a builder; sketchSize bounds QCR tokens per
// column (0 = unbounded).
func NewCorrBuilder(sketchSize int) *CorrBuilder {
	return &CorrBuilder{
		sketchSize: sketchSize,
		tokens:     make(map[string][]string),
		data:       make(map[string]map[string]float64),
	}
}

// PairKey names an indexed (key column, numeric column) pair.
func PairKey(tableID, keyCol, numCol string) string {
	return tableID + "." + keyCol + "|" + numCol
}

// Add stages one keyed numeric column under pairKey.
func (b *CorrBuilder) Add(pairKey string, keys []string, vals []float64) error {
	if _, dup := b.tokens[pairKey]; dup {
		return errors.New("join: duplicate correlation pair " + pairKey)
	}
	norm := make([]string, len(keys))
	for i, k := range keys {
		norm[i] = tokenize.Normalize(k)
	}
	toks := sketch.QCRTokens(norm, vals, b.sketchSize)
	if len(toks) == 0 {
		return errors.New("join: empty keyed column " + pairKey)
	}
	b.tokens[pairKey] = toks
	m := make(map[string]float64, len(keys))
	for i, k := range norm {
		if k == "" {
			continue
		}
		if _, seen := m[k]; !seen && i < len(vals) {
			m[k] = vals[i]
		}
	}
	b.data[pairKey] = m
	b.order = append(b.order, pairKey)
	return nil
}

// Build freezes the builder into a CorrEngine.
func (b *CorrBuilder) Build() (*CorrEngine, error) {
	if len(b.order) == 0 {
		return nil, errors.New("join: no correlation pairs staged")
	}
	sort.Strings(b.order)
	ib := invindex.NewBuilder()
	for _, k := range b.order {
		if err := ib.Add(k, b.tokens[k]); err != nil {
			return nil, err
		}
	}
	ix, err := ib.Build()
	if err != nil {
		return nil, err
	}
	return &CorrEngine{
		sketchSize: b.sketchSize,
		inv:        ix,
		searcher:   josie.NewSearcher(ix),
		data:       b.data,
	}, nil
}

// TopK returns the k columns most likely correlated (or, with
// negative=true, anticorrelated) with the query keyed series, ranked
// by QCR token overlap and verified with exact Pearson correlation
// over the joined keys.
func (e *CorrEngine) TopK(keys []string, vals []float64, k int, negative bool) []CorrMatch {
	norm := make([]string, len(keys))
	for i, s := range keys {
		norm[i] = tokenize.Normalize(s)
	}
	toks := sketch.QCRTokens(norm, vals, e.sketchSize)
	if negative {
		toks = sketch.FlipTokens(toks)
	}
	res, _ := e.searcher.TopK(toks, k, josie.Adaptive)
	out := make([]CorrMatch, 0, len(res))
	qm := make(map[string]float64, len(norm))
	for i, s := range norm {
		if s == "" {
			continue
		}
		if _, seen := qm[s]; !seen && i < len(vals) {
			qm[s] = vals[i]
		}
	}
	for _, r := range res {
		out = append(out, CorrMatch{
			ColumnKey:   r.Key,
			QCROverlap:  r.Overlap,
			Correlation: e.exactCorrelation(qm, r.Key),
		})
	}
	return out
}

// BruteForceTopK scans all indexed pairs computing exact correlations
// after the join — the baseline the sketch index accelerates.
func (e *CorrEngine) BruteForceTopK(keys []string, vals []float64, k int, negative bool) []CorrMatch {
	qm := make(map[string]float64, len(keys))
	for i, s := range keys {
		n := tokenize.Normalize(s)
		if n == "" {
			continue
		}
		if _, seen := qm[n]; !seen && i < len(vals) {
			qm[n] = vals[i]
		}
	}
	pairKeys := make([]string, 0, len(e.data))
	for pk := range e.data {
		pairKeys = append(pairKeys, pk)
	}
	sort.Strings(pairKeys)
	out := make([]CorrMatch, 0, len(pairKeys))
	for _, pk := range pairKeys {
		c := e.exactCorrelation(qm, pk)
		out = append(out, CorrMatch{ColumnKey: pk, Correlation: c})
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Correlation, out[j].Correlation
		if negative {
			ci, cj = -ci, -cj
		}
		if ci != cj {
			return ci > cj
		}
		return out[i].ColumnKey < out[j].ColumnKey
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// exactCorrelation joins the query map with an indexed pair on keys
// and computes Pearson correlation over the intersection.
func (e *CorrEngine) exactCorrelation(qm map[string]float64, pairKey string) float64 {
	tm := e.data[pairKey]
	keys := make([]string, 0, len(qm))
	for k := range qm {
		if _, ok := tm[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		return 0
	}
	sort.Strings(keys)
	x := make([]float64, len(keys))
	y := make([]float64, len(keys))
	for i, k := range keys {
		x[i], y[i] = qm[k], tm[k]
	}
	return metrics.Pearson(x, y)
}

// NumPairs returns the number of indexed keyed numeric columns.
func (e *CorrEngine) NumPairs() int { return len(e.data) }
