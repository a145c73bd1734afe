package dict

import (
	"fmt"
	"sort"
)

// IDSet is a sorted, duplicate-free slice of dictionary IDs — the
// integer posting-list form of a value set. The zero value is the
// empty set. An IDSet is plain read-only data: share it freely across
// goroutines.
type IDSet []uint32

// NewIDSet builds an IDSet from arbitrary IDs (copied, sorted,
// deduplicated).
func NewIDSet(ids []uint32) IDSet {
	cp := make([]uint32, len(ids))
	copy(cp, ids)
	return newSortedDedup(cp)
}

// Check reports why s is not a set over IDs [0, size): an ID out of
// that range, or IDs not strictly ascending. Decoders run it on stored
// sets, which the set algebra and every ID lookup trust.
func (s IDSet) Check(size int) error {
	for i, id := range s {
		if int(id) >= size {
			return fmt.Errorf("ID %d out of range [0, %d)", id, size)
		}
		if i > 0 && s[i-1] >= id {
			return fmt.Errorf("IDs not strictly ascending at position %d", i)
		}
	}
	return nil
}

// Contains reports membership via binary search.
func (s IDSet) Contains(id uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// gallopRatio is the size skew beyond which Overlap switches from a
// linear merge to galloping (exponential) search: probing the large
// side in O(small * log large) beats scanning it linearly.
const gallopRatio = 16

// Overlap computes |A ∩ B|.
func Overlap(a, b IDSet) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) >= gallopRatio*len(a) {
		return gallopOverlap(a, b)
	}
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

// gallopOverlap counts matches of the small set a inside the much
// larger b: for each member it doubles a probe step from the current
// position, then binary-searches the bracketed window.
func gallopOverlap(a, b IDSet) int {
	n, lo := 0, 0
	for _, x := range a {
		// Exponential probe: find hi with b[hi] >= x.
		step, hi := 1, lo
		for hi < len(b) && b[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search in (lo-1, hi].
		i := lo + sort.Search(hi-lo, func(i int) bool { return b[lo+i] >= x })
		if i < len(b) && b[i] == x {
			n++
			lo = i + 1
		} else {
			lo = i
		}
		if lo >= len(b) {
			break
		}
	}
	return n
}

// Intersect returns A ∩ B as a new IDSet.
func Intersect(a, b IDSet) IDSet {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return nil
	}
	out := make(IDSet, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Union returns A ∪ B as a new IDSet.
func Union(a, b IDSet) IDSet {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(IDSet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Jaccard computes exact Jaccard similarity, matching
// minhash.JaccardSets bit for bit (two empty sets score 0).
func Jaccard(a, b IDSet) float64 {
	return JaccardOf(Overlap(a, b), len(a), len(b))
}

// JaccardOf is Jaccard of two sets of sizes na and nb that share inter
// members, for callers that counted the overlap themselves.
func JaccardOf(inter, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 0
	}
	return float64(inter) / float64(na+nb-inter)
}

// Containment computes exact |Q ∩ X| / |Q|, matching
// minhash.ContainmentSets bit for bit (empty Q scores 0).
func Containment(q, x IDSet) float64 {
	if len(q) == 0 {
		return 0
	}
	return float64(Overlap(q, x)) / float64(len(q))
}
