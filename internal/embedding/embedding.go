// Package embedding provides deterministic, corpus-trained dense
// representations of data-lake values and columns. It substitutes for
// the pre-trained word embeddings and language-model encoders the
// surveyed systems use (TUS's fastText, PEXESO's word vectors,
// Starmie's contextualized encoders) while remaining fully offline:
//
//   - Training uses random indexing: every token owns a deterministic
//     hash-derived ±1 "index vector", and a token's embedding is the
//     idf-weighted sum of the index vectors of tokens it co-occurs
//     with. This is a streaming random projection of the co-occurrence
//     (PMI-like) matrix, so values from the same semantic domain —
//     which co-occur in the lake's columns — land close in cosine
//     space, the property TUS and PEXESO rely on.
//   - Out-of-vocabulary values fall back to character q-gram vectors
//     (fastText subword style), so typo variants of the same string
//     remain close — the property fuzzy joins rely on.
package embedding

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"unicode/utf8"

	"tablehound/internal/tokenize"
)

// FNV-1a 64 and splitmix64 constants: a token's sign bits are the
// splitmix finalizer of its FNV-1a hash salted with seed and block.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
	golden64    uint64 = 0x9e3779b97f4a7c15
)

// fnv1a is FNV-1a 64 over the string's bytes.
func fnv1a(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// signBits returns the 64 sign bits of dimensions [base, base+64) of
// the index vector of a token whose FNV-1a hash is h: the pool is
// re-drawn every 64 dimensions by salting with seed+base.
func signBits(h, seed uint64, base int) uint64 {
	x := h ^ ((seed + uint64(base)) * golden64)
	// splitmix finalizer.
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RandomVector returns the deterministic ±1 index vector of a token.
func RandomVector(tok string, dim int, seed uint64) Vector {
	v := make(Vector, dim)
	h := fnv1a(tok)
	for base := 0; base < dim; base += 64 {
		x := signBits(h, seed, base)
		for j := range v[base:min(base+64, dim)] {
			v[base+j] = float32(int(x>>uint(j)&1)*2 - 1)
		}
	}
	return v
}

// gramChunk is how many q-grams one bit-sliced pass counts: 8 counter
// planes hold 0..255.
const gramChunk = 255

// CharGramVector returns the unit-normalized sum of the index vectors
// of the string's padded character q-grams ('#' before, '$' after, as
// tokenize.QGrams pads them). Strings at small edit distance share
// most grams and therefore have high cosine similarity.
//
// Only the result is allocated: grams are hashed where they lie, and
// their ±1 signs are counted 64 dimensions at a time in bit-sliced
// counters. Every partial sum is a small integer, exact in float32, so
// the result equals adding one index vector per gram, float for float
// (up to 2^24 grams, past which a float32 sum of ±1 is no longer
// exact in any order).
func CharGramVector(s string, dim, q int, seed uint64) Vector {
	out := Zero(dim)
	if q <= 0 {
		return out
	}
	s = tokenize.Normalize(s)
	var hs [gramChunk]uint64
	n := 0
	// Gram g covers positions [g, g+q) of the padded rune sequence: q-1
	// '#', the runes of s, q-1 '$'. lo is the byte offset of the first
	// rune of s the gram covers.
	grams := utf8.RuneCountInString(s) + q - 1
	lo := 0
	for g := 0; g < grams; g++ {
		h := fnvOffset64
		left := q
		for ; left > g+1; left-- {
			h = (h ^ '#') * fnvPrime64
		}
		for off := lo; left > 0 && off < len(s); left-- {
			var size int
			h, size = hashRune(h, s[off:])
			off += size
		}
		for ; left > 0; left-- {
			h = (h ^ '$') * fnvPrime64
		}
		if g >= q-1 {
			_, size := utf8.DecodeRuneInString(s[lo:])
			lo += size
		}
		if n == gramChunk {
			addSigns(out, hs[:n], seed)
			n = 0
		}
		hs[n] = h
		n++
	}
	if grams == 0 {
		// "" at q = 1 pads to nothing: its one gram is the empty string.
		hs[0], n = fnvOffset64, 1
	}
	addSigns(out, hs[:n], seed)
	return out.Normalize()
}

// hashRune folds the UTF-8 encoding of the first rune of s into the
// FNV-1a state h and returns the rune's width in s. An invalid byte
// hashes as U+FFFD, which is what a []rune conversion makes of it.
func hashRune(h uint64, s string) (uint64, int) {
	if s[0] < utf8.RuneSelf {
		return (h ^ uint64(s[0])) * fnvPrime64, 1
	}
	r, size := utf8.DecodeRuneInString(s)
	enc := s[:size]
	if r == utf8.RuneError && size == 1 {
		enc = "\uFFFD"
	}
	for i := 0; i < len(enc); i++ {
		h = (h ^ uint64(enc[i])) * fnvPrime64
	}
	return h, size
}

// addSigns adds to out the sum of the ±1 index vectors of the tokens
// whose FNV-1a hashes are hs, at most gramChunk of them.
func addSigns(out Vector, hs []uint64, seed uint64) {
	np := bits.Len(uint(len(hs)))
	for base := 0; base < len(out); base += 64 {
		// planes[k] holds bit k of each dimension's count of +1 signs;
		// adding a token's 64 signs is a carry-ripple down the planes.
		var planes [8]uint64
		for _, h := range hs {
			carry := signBits(h, seed, base)
			for k := 0; carry != 0; k++ {
				planes[k], carry = planes[k]^carry, planes[k]&carry
			}
		}
		// Read the counts back eight dimensions at a time, one per byte.
		blk := out[base:min(base+64, len(out))]
		for g := 0; g < len(blk); g += 8 {
			var ones uint64
			for k := 0; k < np; k++ {
				ones |= spreadBits(planes[k]>>uint(g)&0xff) << k
			}
			for j := range blk[g:min(g+8, len(blk))] {
				blk[g+j] += float32(2*int(ones>>(8*uint(j))&0xff) - len(hs))
			}
		}
	}
}

// spreadBits moves bit i of the byte b to the lowest bit of byte i.
func spreadBits(b uint64) uint64 {
	x := (b * 0x0101010101010101) & 0x8040201008040201
	return ((x + 0x7f7f7f7f7f7f7f7f) >> 7) & 0x0101010101010101
}

// Config controls training.
type Config struct {
	Dim  int    // embedding dimension (default 64)
	Seed uint64 // determinism seed
	// MinCount drops tokens seen in fewer contexts (default 1).
	MinCount int
	// CharGramQ is the q used for OOV fallback vectors (default 3).
	CharGramQ int
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 64
	}
	if c.MinCount <= 0 {
		c.MinCount = 1
	}
	if c.CharGramQ <= 0 {
		c.CharGramQ = 3
	}
	return c
}

// Model holds trained token embeddings plus the OOV fallback.
type Model struct {
	cfg  Config
	vecs map[string]Vector
}

// Train learns embeddings from contexts: each context is a bag of
// tokens considered mutually related (typically the distinct values of
// one data-lake column). Tokens are used verbatim; callers normalize.
func Train(contexts [][]string, cfg Config) *Model {
	cfg = cfg.withDefaults()
	// Pass 1: context frequency per token, for idf weighting.
	df := make(map[string]int)
	for _, ctx := range contexts {
		seen := make(map[string]bool, len(ctx))
		for _, t := range ctx {
			if t != "" && !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	n := float64(len(contexts))
	idf := func(t string) float64 {
		return math.Log(1 + n/float64(df[t]))
	}
	// Pass 2: accumulate idf-weighted context sums.
	m := &Model{cfg: cfg, vecs: make(map[string]Vector)}
	for _, ctx := range contexts {
		distinct := make([]string, 0, len(ctx))
		seen := make(map[string]bool, len(ctx))
		for _, t := range ctx {
			if t != "" && !seen[t] {
				seen[t] = true
				distinct = append(distinct, t)
			}
		}
		if len(distinct) < 2 {
			continue
		}
		sum := Zero(cfg.Dim)
		rvs := make([]Vector, len(distinct))
		ws := make([]float64, len(distinct))
		for i, t := range distinct {
			rvs[i] = RandomVector(t, cfg.Dim, cfg.Seed)
			ws[i] = idf(t)
			sum.AddScaled(rvs[i], ws[i])
		}
		for i, t := range distinct {
			v, ok := m.vecs[t]
			if !ok {
				v = Zero(cfg.Dim)
				m.vecs[t] = v
			}
			// Context sum minus own contribution: a token is embedded
			// by its company, not itself.
			v.Add(sum)
			v.AddScaled(rvs[i], -ws[i])
		}
	}
	for t, v := range m.vecs {
		if df[t] < cfg.MinCount {
			delete(m.vecs, t)
			continue
		}
		v.Normalize()
	}
	return m
}

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.cfg.Dim }

// Clone returns a deep copy of the model. Rebind mutates the vector
// map in place, so two systems that must not share backing memory
// (e.g. a base snapshot and a delta build pinned to its model) each
// take their own clone.
func (m *Model) Clone() *Model {
	out := &Model{cfg: m.cfg, vecs: make(map[string]Vector, len(m.vecs))}
	for t, v := range m.vecs {
		cp := make(Vector, len(v))
		copy(cp, v)
		out.vecs[t] = cp
	}
	return out
}

// Tokens returns the vocabulary in sorted order — the canonical row
// order of the model's segment in the shared vector store.
func (m *Model) Tokens() []string {
	toks := make([]string, 0, len(m.vecs))
	for t := range m.vecs {
		toks = append(toks, t)
	}
	sort.Strings(toks)
	return toks
}

// Rebind replaces every token's vector with the store-backed row at
// the token's sorted position: at(i) must hold exactly the bytes of
// Tokens()[i]'s vector. Values are unchanged — only the backing
// memory moves (duplicate heap copies are freed, or mmap'd pages get
// shared) — so all downstream scores stay bit-identical.
func (m *Model) Rebind(at func(int) []float32, n int) error {
	toks := m.Tokens()
	if n != len(toks) {
		return fmt.Errorf("embedding: rebind over %d rows, vocabulary has %d", n, len(toks))
	}
	for i, t := range toks {
		m.vecs[t] = Vector(at(i))
	}
	return nil
}

// VocabSize returns the number of trained tokens.
func (m *Model) VocabSize() int { return len(m.vecs) }

// Has reports whether the token was seen in training.
func (m *Model) Has(tok string) bool {
	_, ok := m.vecs[tok]
	return ok
}

// TokenVector returns the trained vector for a token, falling back to
// its character-gram vector when out of vocabulary. The result is
// unit-normalized and must not be mutated.
func (m *Model) TokenVector(tok string) Vector {
	if v, ok := m.vecs[tok]; ok {
		return v
	}
	return CharGramVector(tok, m.cfg.Dim, m.cfg.CharGramQ, m.cfg.Seed)
}

// ValueVector embeds one cell value: the normalized value is looked up
// as a whole token first; otherwise the mean of its word vectors;
// otherwise its character-gram vector.
func (m *Model) ValueVector(value string) Vector {
	norm := tokenize.Normalize(value)
	if v, ok := m.vecs[norm]; ok {
		return v
	}
	words := tokenize.Words(norm)
	var known []Vector
	for _, w := range words {
		if v, ok := m.vecs[w]; ok {
			known = append(known, v)
		}
	}
	if len(known) > 0 {
		return Mean(known, m.cfg.Dim).Normalize()
	}
	return CharGramVector(norm, m.cfg.Dim, m.cfg.CharGramQ, m.cfg.Seed)
}

// ColumnVector embeds a column as the unit-normalized mean of its
// distinct values' vectors — the column representation TUS's natural-
// language unionability measure compares.
func (m *Model) ColumnVector(values []string) Vector {
	distinct := tokenize.NormalizeSet(values)
	vs := make([]Vector, 0, len(distinct))
	for _, v := range distinct {
		vs = append(vs, m.ValueVector(v))
	}
	return Mean(vs, m.cfg.Dim).Normalize()
}
