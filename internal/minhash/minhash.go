// Package minhash implements MinHash signatures for estimating Jaccard
// similarity and set containment between value sets, equivalent to the
// datasketch MinHash the surveyed systems (LSH Ensemble, TUS) build on.
//
// A signature is k 64-bit minimums under k pairwise-independent hash
// permutations. E[matching fraction] = Jaccard(A, B), and containment
// can be derived from the Jaccard estimate plus the set cardinalities.
package minhash

import "fmt"

// Signature is a MinHash signature: one minimum per permutation.
type Signature []uint64

// Hasher produces signatures with k permutations derived from a seed.
// It is safe for concurrent use after construction.
type Hasher struct {
	k    int
	a, b []uint64 // permutation i is h -> a[i]*h + b[i] (mod 2^64)
}

// splitmix64 is a strong 64-bit mixer used to derive permutation
// parameters deterministically from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewHasher creates a Hasher with k permutations seeded by seed.
func NewHasher(k int, seed uint64) *Hasher {
	if k <= 0 {
		panic(fmt.Sprintf("minhash: k must be positive, got %d", k))
	}
	h := &Hasher{k: k, a: make([]uint64, k), b: make([]uint64, k)}
	s := seed
	for i := 0; i < k; i++ {
		s = splitmix64(s)
		h.a[i] = s | 1 // odd multiplier => bijection mod 2^64
		s = splitmix64(s)
		h.b[i] = s
	}
	return h
}

// K returns the number of permutations.
func (h *Hasher) K() int { return h.k }

// FNV-1a parameters (hash/fnv), inlined so hashing a value allocates
// nothing: the stdlib digest costs a heap object plus a []byte copy of
// the string per call, and HashValue sits on every signing hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashValue returns the base 64-bit hash of a value: FNV-1a over the
// string bytes, passed through a splitmix64 finalizer — raw FNV of
// short sequential strings is not uniform enough for order-statistic
// sketches (KMV). Allocation-free; bit-identical to the historical
// hash/fnv implementation.
func HashValue(v string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= fnvPrime64
	}
	return splitmix64(h)
}

// Sign computes the signature of a value set. Duplicates are harmless
// (minimum is idempotent). An empty set yields an all-max signature.
func (h *Hasher) Sign(values []string) Signature {
	sig := make(Signature, h.k)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, v := range values {
		h.Update(sig, v)
	}
	return sig
}

// Update folds one value into an existing signature.
func (h *Hasher) Update(sig Signature, v string) {
	h.UpdateHash(sig, HashValue(v))
}

// UpdateHash folds one pre-hashed value into an existing signature.
func (h *Hasher) UpdateHash(sig Signature, hv uint64) {
	for i := 0; i < h.k; i++ {
		p := h.a[i]*hv + h.b[i]
		if p < sig[i] {
			sig[i] = p
		}
	}
}

// Merge sets dst to the signature of the union of the two underlying
// sets. Signatures must come from the same Hasher.
func Merge(dst, src Signature) {
	for i := range dst {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
	}
}

// Jaccard estimates the Jaccard similarity of the underlying sets.
func Jaccard(a, b Signature) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	m := 0
	for i := range a {
		if a[i] == b[i] {
			m++
		}
	}
	return float64(m) / float64(len(a))
}

// Containment estimates |Q ∩ X| / |Q| from the Jaccard estimate and the
// exact cardinalities of Q and X, via |Q∩X| = J/(1+J) * (|Q|+|X|).
func Containment(q, x Signature, qSize, xSize int) float64 {
	if qSize == 0 {
		return 0
	}
	j := Jaccard(q, x)
	inter := j / (1 + j) * float64(qSize+xSize)
	c := inter / float64(qSize)
	if c > 1 {
		c = 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// Set is a precomputed value set for repeated exact comparisons.
// Indexes that verify many queries against the same columns build a
// Set per column once (at index-build time) instead of rebuilding a
// hash map on every query. Empty strings are dropped, matching the
// Exact* functions' treatment of missing values. A Set is read-only
// after construction and safe for concurrent use.
type Set map[string]struct{}

// NewSet builds a Set from values (duplicates and empties dropped).
func NewSet(vs []string) Set {
	s := make(Set, len(vs))
	for _, v := range vs {
		if v != "" {
			s[v] = struct{}{}
		}
	}
	return s
}

// OverlapSets computes |A∩B| by iterating the smaller set.
func OverlapSets(a, b Set) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for v := range a {
		if _, ok := b[v]; ok {
			inter++
		}
	}
	return inter
}

// JaccardSets computes exact Jaccard similarity of two Sets.
func JaccardSets(a, b Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := OverlapSets(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// ContainmentSets computes exact |Q∩X|/|Q|.
func ContainmentSets(q, x Set) float64 {
	if len(q) == 0 {
		return 0
	}
	return float64(OverlapSets(q, x)) / float64(len(q))
}

// ExactJaccard computes exact Jaccard similarity of two string sets
// (which may contain duplicates); used as ground truth in tests.
func ExactJaccard(a, b []string) float64 {
	return JaccardSets(NewSet(a), NewSet(b))
}

// ExactContainment computes exact |Q∩X|/|Q| treating inputs as sets.
func ExactContainment(q, x []string) float64 {
	return ContainmentSets(NewSet(q), NewSet(x))
}

// ExactOverlap computes |A∩B| treating inputs as sets.
func ExactOverlap(a, b []string) int {
	return OverlapSets(NewSet(a), NewSet(b))
}
