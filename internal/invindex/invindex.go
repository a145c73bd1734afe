// Package invindex implements the frequency-ordered inverted index
// over value sets that exact set-overlap search (JOSIE), keyword
// search, and multi-attribute join filtering build on.
//
// Tokens are globally ranked by ascending document frequency and each
// set stores its tokens in rank order, so rare (most selective) tokens
// come first. Posting entries record the token's position within the
// owning set, which yields the tight overlap upper bounds JOSIE uses.
package invindex

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Posting is one entry in a token's posting list.
type Posting struct {
	Set int32 // set ID
	Pos int32 // position of the token within the set's rank-ordered tokens
}

// Index is a frozen inverted index over string sets or over
// dictionary-ID sets. Build with a Builder; a frozen Index is safe
// for concurrent reads.
//
// Tokens may be strings (Add) or pre-interned dictionary IDs
// (AddIDs). The two forms behave identically because a value
// dictionary assigns IDs in lexicographic value order, so the
// (df, token) ranking tie-break yields the same rank permutation
// either way.
type Index struct {
	tokenIDs map[string]int32 // token -> rank; string-built indexes only
	idOf     []uint32         // rank -> dictionary ID; ID-built indexes only
	rankOfID []int32          // dictionary ID -> rank, -1 absent; ID-built only
	df       []int32          // rank -> document frequency
	postings [][]Posting      // rank -> posting list sorted by set ID
	sets     [][]int32        // set ID -> rank-ordered token ranks
	keys     []string         // set ID -> external key
	keyToSet map[string]int32
}

// Builder accumulates sets before freezing them into an Index. A
// Builder is either string-staged (Add) or ID-staged (AddIDs); mixing
// the two is an error.
type Builder struct {
	keys     []string
	values   [][]string
	idValues [][]uint32
	seen     map[string]bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{seen: make(map[string]bool)}
}

// Add stages a set under a unique key. Values are deduplicated; empty
// strings are ignored.
func (b *Builder) Add(key string, values []string) error {
	if b.idValues != nil {
		return fmt.Errorf("invindex: Add after AddIDs on the same builder")
	}
	if b.seen[key] {
		return fmt.Errorf("invindex: duplicate key %q", key)
	}
	b.seen[key] = true
	b.keys = append(b.keys, key)
	dedup := make(map[string]bool, len(values))
	vs := make([]string, 0, len(values))
	for _, v := range values {
		if v != "" && !dedup[v] {
			dedup[v] = true
			vs = append(vs, v)
		}
	}
	b.values = append(b.values, vs)
	return nil
}

// AddIDs stages a set of pre-interned dictionary IDs under a unique
// key. The slice is copied; IDs are deduplicated, and staged in
// ascending order (ranks are assigned per token, so the staging order
// of a set's members never shows in the built index).
func (b *Builder) AddIDs(key string, ids []uint32) error {
	if b.values != nil {
		return fmt.Errorf("invindex: AddIDs after Add on the same builder")
	}
	if b.seen[key] {
		return fmt.Errorf("invindex: duplicate key %q", key)
	}
	if b.seen == nil {
		b.seen = make(map[string]bool)
	}
	b.seen[key] = true
	b.keys = append(b.keys, key)
	vs := slices.Clone(ids)
	// Callers pass dict.IDSets, which are already strictly ascending.
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			slices.Sort(vs)
			vs = slices.Compact(vs)
			break
		}
	}
	b.idValues = append(b.idValues, vs)
	return nil
}

// Len returns the number of staged sets.
func (b *Builder) Len() int { return len(b.keys) }

// Build freezes the staged sets into an Index.
func (b *Builder) Build() (*Index, error) {
	if len(b.keys) == 0 {
		return nil, errors.New("invindex: no sets added")
	}
	if b.idValues != nil {
		return b.buildIDs()
	}
	// Document frequency per token.
	df := make(map[string]int32)
	for _, vs := range b.values {
		for _, v := range vs {
			df[v]++
		}
	}
	// Rank tokens by ascending df, ties by token for determinism.
	tokens := make([]string, 0, len(df))
	for t := range df {
		tokens = append(tokens, t)
	}
	sort.Slice(tokens, func(i, j int) bool {
		if df[tokens[i]] != df[tokens[j]] {
			return df[tokens[i]] < df[tokens[j]]
		}
		return tokens[i] < tokens[j]
	})
	ix := &Index{
		tokenIDs: make(map[string]int32, len(tokens)),
		df:       make([]int32, len(tokens)),
		sets:     make([][]int32, len(b.keys)),
		keys:     b.keys,
		keyToSet: make(map[string]int32, len(b.keys)),
	}
	for rank, t := range tokens {
		ix.tokenIDs[t] = int32(rank)
		ix.df[rank] = df[t]
	}
	for sid, vs := range b.values {
		ranks := make([]int32, len(vs))
		for i, v := range vs {
			ranks[i] = ix.tokenIDs[v]
		}
		slices.Sort(ranks)
		ix.sets[sid] = ranks
		ix.keyToSet[b.keys[sid]] = int32(sid)
	}
	ix.postings = postingsCSR(ix.sets, ix.df)
	return ix, nil
}

// buildIDs freezes ID-staged sets. The token ranking ties on the
// dictionary ID, which — because dictionaries assign IDs in
// lexicographic value order — is the same order the string path's
// token tie-break produces.
func (b *Builder) buildIDs() (*Index, error) {
	maxID := uint32(0)
	for _, vs := range b.idValues {
		for _, id := range vs {
			if id > maxID {
				maxID = id
			}
		}
	}
	df := make([]int32, maxID+1)
	maxDF := int32(0)
	for _, vs := range b.idValues {
		for _, id := range vs {
			df[id]++
			maxDF = max(maxDF, df[id])
		}
	}
	// Rank tokens by ascending df, ties by ID: a counting sort over df.
	// Tokens enter their df's bucket in ascending ID order, so each
	// bucket keeps the (df, ID) order a comparison sort gives.
	// next[n] starts as the first rank of df n: the count of tokens of
	// a smaller df. next[maxDF+1] ends as the token count.
	next := make([]int32, maxDF+2)
	for _, n := range df {
		if n > 0 {
			next[n+1]++
		}
	}
	for n := int32(1); n <= maxDF; n++ {
		next[n+1] += next[n]
	}
	ntok := next[maxDF+1]
	ix := &Index{
		idOf:     make([]uint32, ntok),
		rankOfID: make([]int32, maxID+1),
		df:       make([]int32, ntok),
		sets:     make([][]int32, len(b.keys)),
		keys:     b.keys,
		keyToSet: make(map[string]int32, len(b.keys)),
	}
	for id, n := range df {
		rank := int32(-1)
		if n > 0 {
			rank = next[n]
			next[n]++
			ix.idOf[rank] = uint32(id)
			ix.df[rank] = n
		}
		ix.rankOfID[id] = rank
	}
	for sid, vs := range b.idValues {
		ranks := make([]int32, len(vs))
		for i, id := range vs {
			ranks[i] = ix.rankOfID[id]
		}
		slices.Sort(ranks)
		ix.sets[sid] = ranks
		ix.keyToSet[b.keys[sid]] = int32(sid)
	}
	ix.postings = postingsCSR(ix.sets, ix.df)
	return ix, nil
}

// postingsCSR builds every rank's posting list from the rank-ordered
// sets, as slices of one backing array: list r holds counts[r] entries
// (the rank's df, which the sets must agree with), in ascending set ID,
// and its capacity is its length. A rank with no posting gets nil.
func postingsCSR(sets [][]int32, counts []int32) [][]Posting {
	total := 0
	for _, n := range counts {
		total += int(n)
	}
	backing := make([]Posting, total)
	postings := make([][]Posting, len(counts))
	off := 0
	for r, n := range counts {
		if n > 0 {
			postings[r] = backing[off : off : off+int(n)]
			off += int(n)
		}
	}
	for sid, set := range sets {
		for pos, r := range set {
			postings[r] = append(postings[r], Posting{Set: int32(sid), Pos: int32(pos)})
		}
	}
	return postings
}

// NumSets returns the number of indexed sets.
func (ix *Index) NumSets() int { return len(ix.sets) }

// NumTokens returns the number of distinct tokens.
func (ix *Index) NumTokens() int { return len(ix.df) }

// Key returns the external key of a set ID.
func (ix *Index) Key(set int32) string { return ix.keys[set] }

// SetID returns the set ID for an external key, if present.
func (ix *Index) SetID(key string) (int32, bool) {
	id, ok := ix.keyToSet[key]
	return id, ok
}

// TokenRank returns the global rank of a token, if indexed.
func (ix *Index) TokenRank(token string) (int32, bool) {
	r, ok := ix.tokenIDs[token]
	return r, ok
}

// DF returns the document frequency of a token rank.
func (ix *Index) DF(rank int32) int32 { return ix.df[rank] }

// RankOfID returns the rank of a dictionary ID, or -1 when the ID is
// not indexed (including ephemeral out-of-vocabulary IDs past the
// rank table). Only valid on ID-built indexes.
func (ix *Index) RankOfID(id uint32) int32 {
	if int(id) >= len(ix.rankOfID) {
		return -1
	}
	return ix.rankOfID[id]
}

// Postings returns the posting list of a token rank. Callers must not
// mutate the returned slice.
func (ix *Index) Postings(rank int32) []Posting { return ix.postings[rank] }

// Set returns the rank-ordered token ranks of a set. Callers must not
// mutate the returned slice.
func (ix *Index) Set(set int32) []int32 { return ix.sets[set] }

// SetSize returns the distinct-token count of a set.
func (ix *Index) SetSize(set int32) int { return len(ix.sets[set]) }

// QueryRanksIDs maps deduplicated query dictionary IDs to the ranks
// of those present in the index, sorted ascending (rarest first).
// Unknown IDs — including ephemeral out-of-vocabulary IDs, which lie
// past the rank table — cannot contribute to overlap and are dropped.
// Only valid on ID-built indexes.
func (ix *Index) QueryRanksIDs(ids []uint32) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		if int(id) < len(ix.rankOfID) {
			if r := ix.rankOfID[id]; r >= 0 {
				out = append(out, r)
			}
		}
	}
	slices.Sort(out)
	return out
}

// QueryRanks maps query values to the ranks of those present in the
// dictionary, sorted ascending (rarest first). Unknown values cannot
// contribute to overlap and are dropped.
func (ix *Index) QueryRanks(values []string) []int32 {
	seen := make(map[int32]bool, len(values))
	out := make([]int32, 0, len(values))
	for _, v := range values {
		if r, ok := ix.tokenIDs[v]; ok && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Overlap computes the exact overlap between sorted rank slices via a
// linear merge.
func Overlap(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// OverlapFrom computes the overlap between a[ai:] and b[bi:].
func OverlapFrom(a []int32, ai int, b []int32, bi int) int {
	return Overlap(a[ai:], b[bi:])
}
