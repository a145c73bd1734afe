// Package kb provides the knowledge-base substrate used by semantic
// table discovery: a type hierarchy (ontology), entity-to-type
// assertions, and binary relation facts. It stands in for the curated
// knowledge graphs (YAGO, proprietary ontologies) that TUS's semantic
// unionability and SANTOS's relationship semantics consume, exposing
// the operations those systems need — type lookup with ancestors,
// least common ancestor, hierarchy-aware type similarity, and
// relation lookup between value pairs.
//
// The tutorial's "common wisdom" trade-off (KBs: high precision,
// partial coverage) is modeled directly: values absent from the KB
// simply have no types, and Coverage reports the fraction covered.
package kb

import (
	"sort"
	"sync"

	"tablehound/internal/tokenize"
)

// KB is an ontology plus entity and relation assertions. Not safe for
// concurrent mutation; safe for concurrent reads after loading (the
// internal depth memo is mutex-guarded, so read paths that populate it
// lazily — TypeSimilarity, DominantType — may run concurrently).
type KB struct {
	parents  map[string][]string // type -> direct parents
	children map[string][]string
	entities map[string][]string      // normalized value -> direct types
	rels     map[pair]map[string]bool // (subj, obj) -> predicates
	relNames map[string]int           // predicate -> fact count
	depthMu  sync.Mutex
	depth    map[string]int // type -> depth from a root (memo)
}

type pair struct{ s, o string }

// New returns an empty KB.
func New() *KB {
	return &KB{
		parents:  make(map[string][]string),
		children: make(map[string][]string),
		entities: make(map[string][]string),
		rels:     make(map[pair]map[string]bool),
		relNames: make(map[string]int),
		depth:    make(map[string]int),
	}
}

// AddType asserts child IS-A parent in the type hierarchy.
func (k *KB) AddType(child, parent string) {
	for _, p := range k.parents[child] {
		if p == parent {
			return
		}
	}
	k.parents[child] = append(k.parents[child], parent)
	k.children[parent] = append(k.children[parent], child)
	k.depth = make(map[string]int) // invalidate memo
}

// AddEntity asserts that a value has the given direct types. The value
// is normalized, matching how columns are normalized before lookup.
func (k *KB) AddEntity(value string, types ...string) {
	v := tokenize.Normalize(value)
	if v == "" {
		return
	}
	have := k.entities[v]
	for _, t := range types {
		dup := false
		for _, h := range have {
			if h == t {
				dup = true
				break
			}
		}
		if !dup {
			have = append(have, t)
		}
	}
	k.entities[v] = have
}

// AddFact asserts predicate(subj, obj) between two entity values.
func (k *KB) AddFact(subj, pred, obj string) {
	p := pair{tokenize.Normalize(subj), tokenize.Normalize(obj)}
	m, ok := k.rels[p]
	if !ok {
		m = make(map[string]bool)
		k.rels[p] = m
	}
	if !m[pred] {
		m[pred] = true
		k.relNames[pred]++
	}
}

// Types returns the direct types of a value (nil if uncovered).
func (k *KB) Types(value string) []string {
	return k.entities[tokenize.Normalize(value)]
}

// AllTypes returns the direct types of a value plus all ancestors,
// sorted for determinism.
func (k *KB) AllTypes(value string) []string {
	direct := k.Types(value)
	if len(direct) == 0 {
		return nil
	}
	seen := make(map[string]bool)
	var walk func(t string)
	walk = func(t string) {
		if seen[t] {
			return
		}
		seen[t] = true
		for _, p := range k.parents[t] {
			walk(p)
		}
	}
	for _, t := range direct {
		walk(t)
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the value is covered by the KB.
func (k *KB) Has(value string) bool {
	return len(k.entities[tokenize.Normalize(value)]) > 0
}

// Predicates returns the relation predicates asserted between two
// values, sorted, or nil.
func (k *KB) Predicates(subj, obj string) []string {
	m := k.rels[pair{tokenize.Normalize(subj), tokenize.Normalize(obj)}]
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// NumEntities returns the number of values with at least one type.
func (k *KB) NumEntities() int { return len(k.entities) }

// NumFacts returns the number of (subj, pred, obj) facts.
func (k *KB) NumFacts() int {
	n := 0
	for _, c := range k.relNames {
		n += c
	}
	return n
}

// PredicateCount returns how many facts use the predicate.
func (k *KB) PredicateCount(pred string) int { return k.relNames[pred] }

// Coverage returns the fraction of the given values that the KB types.
func (k *KB) Coverage(values []string) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if k.Has(v) {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// typeDepth returns the depth of a type (0 for roots), memoized. The
// memo is the one piece of KB state mutated on read paths, so it is
// guarded for concurrent use.
func (k *KB) typeDepth(t string) int {
	k.depthMu.Lock()
	d := k.typeDepthLocked(t)
	k.depthMu.Unlock()
	return d
}

func (k *KB) typeDepthLocked(t string) int {
	if d, ok := k.depth[t]; ok {
		return d
	}
	best := 0
	for _, p := range k.parents[t] {
		if d := k.typeDepthLocked(p) + 1; d > best {
			best = d
		}
	}
	k.depth[t] = best
	return best
}

// LCA returns the deepest common ancestor of two types, if any. Ties
// in depth go to the smaller name, so the answer does not depend on
// the argument order. It walks the hierarchy without allocating; only
// the depth memo persists across calls.
func (k *KB) LCA(a, b string) (string, bool) {
	lca, d := k.deepestCommon(a, b)
	return lca, d >= 0
}

// deepestCommon walks up from c and returns the deepest type on the
// way that is a or an ancestor of a, with its depth (-1 when there is
// none). The walk stops at the first such type on each path: the types
// above it are common ancestors too, but shallower.
func (k *KB) deepestCommon(a, c string) (string, int) {
	if k.isAncestor(c, a) {
		return c, k.typeDepth(c)
	}
	best, bestDepth := "", -1
	for _, p := range k.parents[c] {
		if q, d := k.deepestCommon(a, p); d > bestDepth || (d == bestDepth && q < best) {
			best, bestDepth = q, d
		}
	}
	return best, bestDepth
}

// isAncestor reports whether x is t or one of t's ancestors.
func (k *KB) isAncestor(x, t string) bool {
	if x == t {
		return true
	}
	for _, p := range k.parents[t] {
		if k.isAncestor(x, p) {
			return true
		}
	}
	return false
}

// TypeSimilarity is Wu-Palmer similarity over the hierarchy:
// 2*depth(lca) / (depth(a) + depth(b)), in [0, 1]. Identical types
// score 1; types with no common ancestor score 0.
func (k *KB) TypeSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	lca, ok := k.LCA(a, b)
	if !ok {
		return 0
	}
	da, db := k.typeDepth(a), k.typeDepth(b)
	if da+db == 0 {
		return 0
	}
	return 2 * float64(k.typeDepth(lca)) / float64(da+db)
}

// ValueSimilarity is the best Wu-Palmer similarity over the two
// values' direct types, 0 when either value is uncovered.
func (k *KB) ValueSimilarity(a, b string) float64 {
	ta, tb := k.Types(a), k.Types(b)
	best := 0.0
	for _, x := range ta {
		for _, y := range tb {
			if s := k.TypeSimilarity(x, y); s > best {
				best = s
			}
		}
	}
	return best
}

// DominantType returns the most specific type that covers at least
// minFrac of the covered values in the list — the "column type" that
// semantic union search assigns — along with the coverage achieved.
func (k *KB) DominantType(values []string, minFrac float64) (string, float64, bool) {
	counts := make(map[string]int)
	covered := 0
	for _, v := range values {
		ts := k.AllTypes(v)
		if len(ts) == 0 {
			continue
		}
		covered++
		for _, t := range ts {
			counts[t]++
		}
	}
	if covered == 0 {
		return "", 0, false
	}
	var best string
	bestDepth, bestCount := -1, 0
	for t, c := range counts {
		frac := float64(c) / float64(covered)
		if frac < minFrac {
			continue
		}
		d := k.typeDepth(t)
		if d > bestDepth || (d == bestDepth && c > bestCount) ||
			(d == bestDepth && c == bestCount && t < best) {
			best, bestDepth, bestCount = t, d, c
		}
	}
	if bestDepth < 0 {
		return "", 0, false
	}
	return best, float64(bestCount) / float64(covered), true
}

// DominantPredicate returns the predicate asserted for the largest
// fraction of the given value pairs, with its support fraction.
func (k *KB) DominantPredicate(pairs [][2]string) (string, float64, bool) {
	counts := make(map[string]int)
	for _, p := range pairs {
		for _, pred := range k.Predicates(p[0], p[1]) {
			counts[pred]++
		}
	}
	if len(counts) == 0 || len(pairs) == 0 {
		return "", 0, false
	}
	var best string
	bestC := -1
	for p, c := range counts {
		if c > bestC || (c == bestC && p < best) {
			best, bestC = p, c
		}
	}
	return best, float64(bestC) / float64(len(pairs)), true
}
