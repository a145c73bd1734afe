// Package learned implements a piecewise-linear learned index over
// sorted keys (PGM/PLEX style), exploring the tutorial's Section 3
// question of whether learned indexes are effective beyond single-
// table data structures. The index is built with the classic
// shrinking-cone greedy segmentation: each segment is the longest run
// of keys a single linear model predicts within ±Epsilon positions,
// so a lookup is a segment search plus a bounded local search — a
// handful of comparisons versus log2(n) for binary search.
package learned

import (
	"errors"
	"sort"
)

// DefaultEpsilon bounds the model's position error.
const DefaultEpsilon = 32

// segment is one linear model: pos ≈ slope*(key-start) + intercept.
type segment struct {
	start     uint64
	slope     float64
	intercept int
}

// Index is an immutable learned index over sorted distinct keys.
type Index struct {
	keys     []uint64
	segments []segment
	eps      int
}

// New builds an index over keys, which must be sorted ascending and
// distinct. eps <= 0 uses DefaultEpsilon.
func New(keys []uint64, eps int) (*Index, error) {
	if len(keys) == 0 {
		return nil, errors.New("learned: no keys")
	}
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, errors.New("learned: keys must be sorted and distinct")
		}
	}
	ix := &Index{keys: keys, eps: eps}
	ix.build()
	return ix, nil
}

// build runs the shrinking-cone segmentation: maintain the feasible
// slope interval [loSlope, hiSlope] such that every key in the
// current segment is predicted within ±eps; start a new segment when
// the interval empties.
func (ix *Index) build() {
	n := len(ix.keys)
	start := 0
	for start < n {
		base := ix.keys[start]
		lo, hi := 0.0, 1e300
		end := start + 1
		for end < n {
			dx := float64(ix.keys[end] - base)
			dy := float64(end - start)
			// Feasible slopes put key[end] within ±eps of position.
			sLo := (dy - float64(ix.eps)) / dx
			sHi := (dy + float64(ix.eps)) / dx
			if sLo > lo {
				lo = sLo
			}
			if sHi < hi {
				hi = sHi
			}
			if lo > hi {
				break
			}
			end++
		}
		slope := (lo + hi) / 2
		if hi == 1e300 { // single-key segment
			slope = 0
		}
		ix.segments = append(ix.segments, segment{start: base, slope: slope, intercept: start})
		start = end
	}
}

// NumSegments returns the number of linear segments.
func (ix *Index) NumSegments() int { return len(ix.segments) }

// Len returns the number of keys.
func (ix *Index) Len() int { return len(ix.keys) }

// Epsilon returns the maximum position error of the models.
func (ix *Index) Epsilon() int { return ix.eps }

// Lookup returns the position of key, or (insertion position, false)
// when absent.
func (ix *Index) Lookup(key uint64) (int, bool) {
	var cmps int
	return ix.lookup(key, &cmps)
}

// Comparisons reports how many comparisons Lookup(key) makes, against
// segment starts and keys alike: the machine-independent cost of a
// lookup, where its time depends on the host and its load.
func (ix *Index) Comparisons(key uint64) int {
	var cmps int
	ix.lookup(key, &cmps)
	return cmps
}

// lookup is Lookup, counting its comparisons into *cmps.
func (ix *Index) lookup(key uint64, cmps *int) (int, bool) {
	// Segment search: last segment with start <= key.
	si := sort.Search(len(ix.segments), func(i int) bool {
		*cmps++
		return ix.segments[i].start > key
	}) - 1
	if si < 0 {
		return 0, false
	}
	seg := ix.segments[si]
	pred := seg.intercept + int(seg.slope*float64(key-seg.start)+0.5)
	lo := pred - ix.eps
	hi := pred + ix.eps + 1
	if lo < 0 {
		lo = 0
	}
	if hi > len(ix.keys) {
		hi = len(ix.keys)
	}
	// Bounded local search inside the error window.
	p := lo + sort.Search(hi-lo, func(i int) bool {
		*cmps++
		return ix.keys[lo+i] >= key
	})
	if p < len(ix.keys) && ix.keys[p] == key {
		return p, true
	}
	// The window can miss when the key falls between segments; fall
	// back to the invariant-preserving exact answer.
	if p == hi || p == lo {
		return ix.binaryLookup(key, cmps)
	}
	return p, false
}

// BinaryLookup is the classic baseline over the same keys.
func (ix *Index) BinaryLookup(key uint64) (int, bool) {
	var cmps int
	return ix.binaryLookup(key, &cmps)
}

// BinaryComparisons is Comparisons for BinaryLookup: about
// ⌈log₂ Len()⌉ for every key.
func (ix *Index) BinaryComparisons(key uint64) int {
	var cmps int
	ix.binaryLookup(key, &cmps)
	return cmps
}

// binaryLookup is BinaryLookup, counting its comparisons into *cmps.
func (ix *Index) binaryLookup(key uint64, cmps *int) (int, bool) {
	p := sort.Search(len(ix.keys), func(i int) bool {
		*cmps++
		return ix.keys[i] >= key
	})
	return p, p < len(ix.keys) && ix.keys[p] == key
}
