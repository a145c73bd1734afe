// Package schema implements schema matching between table pairs in
// the style the Valentine benchmark (Koutras et al., ICDE 2021)
// evaluates: given two tables, produce a ranked list of column
// correspondences. Three matcher families are provided — name-based
// (label similarity), instance-based (value-distribution similarity),
// and the combined matcher — since which family wins depends on
// whether a lake's headers are trustworthy, the trade-off Section 2.1
// of the tutorial highlights.
package schema

import (
	"sort"
	"strings"

	"tablehound/internal/embedding"
	"tablehound/internal/minhash"
	"tablehound/internal/table"
	"tablehound/internal/tokenize"
)

// Correspondence is one proposed column match.
type Correspondence struct {
	Source string // column name in the source table
	Target string // column name in the target table
	Score  float64
}

// Matcher scores a source/target column pair.
type Matcher interface {
	// Score returns similarity in [0, 1].
	Score(src, dst *table.Column) float64
	// Name identifies the matcher in reports.
	Name() string
}

// NameMatcher compares column labels: exact, tokenized-Jaccard, and
// edit-distance signals combined — the schema-only family.
type NameMatcher struct{}

// Name implements Matcher.
func (NameMatcher) Name() string { return "name" }

// Score implements Matcher.
func (NameMatcher) Score(src, dst *table.Column) float64 {
	return LabelSimilarity(NormLabel(src.Name), NormLabel(dst.Name))
}

// NormLabel canonicalizes a column label for name matching: separators
// become spaces, then tokenize.Normalize.
func NormLabel(s string) string {
	return tokenize.Normalize(strings.ReplaceAll(strings.ReplaceAll(s, "_", " "), "-", " "))
}

// LabelSimilarity is NameMatcher's score over two labels already passed
// through NormLabel, for callers that normalize each label once and
// compare it many times.
func LabelSimilarity(a, b string) float64 {
	if a == "" || b == "" {
		return 0
	}
	if a == b {
		return 1
	}
	// Token Jaccard over label words.
	ta := tokenize.Words(a)
	tb := tokenize.Words(b)
	jac := minhash.ExactJaccard(ta, tb)
	// Normalized edit similarity on the raw labels.
	ed := 1 - float64(editDistance(a, b))/float64(max(len(a), len(b)))
	if jac > ed {
		return jac
	}
	return ed
}

// editDistance is the Levenshtein distance.
func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// InstanceMatcher compares column contents: exact value overlap
// (Jaccard) blended with embedding cosine, so both shared-vocabulary
// and same-domain-different-values pairs score well. Type mismatches
// are vetoed — a numeric column never matches a text column.
type InstanceMatcher struct {
	// Model supplies column embeddings; nil disables the semantic
	// component.
	Model *embedding.Model
}

// Name implements Matcher.
func (m InstanceMatcher) Name() string { return "instance" }

// Score implements Matcher.
func (m InstanceMatcher) Score(src, dst *table.Column) float64 {
	if src.Type.IsNumeric() != dst.Type.IsNumeric() {
		return 0
	}
	if src.Type.IsNumeric() {
		return numericAffinity(src, dst)
	}
	a := tokenize.NormalizeSet(src.Values)
	b := tokenize.NormalizeSet(dst.Values)
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	jac := minhash.ExactJaccard(a, b)
	if m.Model == nil {
		return jac
	}
	cos := (embedding.Cosine(m.Model.ColumnVector(a), m.Model.ColumnVector(b)) + 1) / 2
	if jac > cos {
		return jac
	}
	return cos
}

// numericAffinity compares numeric columns by range overlap.
func numericAffinity(a, b *table.Column) float64 {
	na, ca := a.Numbers()
	nb, cb := b.Numbers()
	if ca == 0 || cb == 0 {
		return 0
	}
	loA, hiA := minMax(na)
	loB, hiB := minMax(nb)
	lo := loA
	if loB > lo {
		lo = loB
	}
	hi := hiA
	if hiB < hi {
		hi = hiB
	}
	if hi <= lo {
		return 0
	}
	span := hiA - loA
	if hiB-loB > span {
		span = hiB - loB
	}
	if span == 0 {
		return 1
	}
	return (hi - lo) / span
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// CombinedMatcher blends name and instance evidence; the weight
// controls trust in headers (lakes with unreliable metadata should
// use a low name weight, per the tutorial's Section 2.1 discussion).
type CombinedMatcher struct {
	Instance   InstanceMatcher
	NameWeight float64 // in [0, 1]
}

// Name implements Matcher.
func (CombinedMatcher) Name() string { return "combined" }

// Score implements Matcher.
func (m CombinedMatcher) Score(src, dst *table.Column) float64 {
	w := m.NameWeight
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	return w*(NameMatcher{}).Score(src, dst) + (1-w)*m.Instance.Score(src, dst)
}

// Match produces the one-to-one correspondences between two tables
// under a matcher, greedily by descending score, keeping pairs with
// score >= threshold.
func Match(src, dst *table.Table, m Matcher, threshold float64) []Correspondence {
	type cand struct {
		i, j  int
		score float64
	}
	var cands []cand
	for i, sc := range src.Columns {
		for j, dc := range dst.Columns {
			if s := m.Score(sc, dc); s >= threshold {
				cands = append(cands, cand{i, j, s})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		if cands[a].i != cands[b].i {
			return cands[a].i < cands[b].i
		}
		return cands[a].j < cands[b].j
	})
	usedS := make(map[int]bool)
	usedD := make(map[int]bool)
	var out []Correspondence
	for _, c := range cands {
		if usedS[c.i] || usedD[c.j] {
			continue
		}
		usedS[c.i] = true
		usedD[c.j] = true
		out = append(out, Correspondence{
			Source: src.Columns[c.i].Name,
			Target: dst.Columns[c.j].Name,
			Score:  c.score,
		})
	}
	return out
}
