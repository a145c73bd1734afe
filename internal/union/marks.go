package union

import (
	"math"

	"tablehound/internal/graph"
)

// The union scoring kernel. Scoring a candidate table needs, for every
// (query column, candidate column) pair, the pair's value overlap and,
// for D3L, the overlap of their word distributions. Rather than merge
// the two sorted ID arrays of every pair, ScoreAmong marks once which
// query columns hold each ID; one ascending pass over a candidate
// column's IDs then yields its overlap with every query column at once.

// queryMarks maps an ID to the query columns holding it. head spans
// the engine's ID space: head[id] is 1 + the index of the ID's last
// mark, or 0 when no query column holds it, and each mark links to
// the previous mark of its ID. The index is reused, with head all
// zero, and release clears only the slots the query set, so a
// ScoreAmong call costs O(query size) here, not O(vocabulary). Between
// add and release it is only read, so a scan's workers share it.
type queryMarks struct {
	head  []int32
	marks []mark
}

type mark struct {
	id   uint32
	col  int32   // the query column's ordinal
	prev int32   // 1 + index of the ID's previous mark; 0 ends the chain
	freq float64 // the column's frequency of the ID; 0 for a value
}

// freeList is a leaky buffer of reusable scan state: get takes an
// entry or makes one, put keeps an entry unless the buffer is full.
// Unlike a sync.Pool it drops nothing on a collection (nor at random,
// as sync.Pool does under the race detector), so what a scan allocates
// depends on its input alone, and the allocation tests can pin it.
type freeList[T any] chan *T

func (f freeList[T]) get() *T {
	select {
	case x := <-f:
		return x
	default:
		return new(T)
	}
}

func (f freeList[T]) put(x *T) {
	select {
	case f <- x:
	default:
	}
}

// Each buffer keeps the state of up to 16 idle scans: a TUS scan holds
// one marks and one scratch per worker, and 16 covers the concurrent
// scans of a server on a few cores; a burst past it allocates, and the
// excess is collected.
var (
	freeMarks   = make(freeList[queryMarks], 16)
	freeScratch = make(freeList[scanScratch], 16)
)

// newQueryMarks takes an empty index over the ID space [0, n) from
// freeMarks; release returns it.
func newQueryMarks(n int) *queryMarks {
	m := freeMarks.get()
	if cap(m.head) < n {
		m.head = make([]int32, n)
	}
	m.head = m.head[:n]
	return m
}

// add marks the IDs of query column col, each with its frequency when
// freq is not nil. An ID outside the ID space is the query's own (an
// out-of-vocabulary value) and no candidate holds it, so it is skipped.
func (m *queryMarks) add(col int, ids []uint32, freq []float64) {
	for k, id := range ids {
		if int(id) >= len(m.head) {
			continue
		}
		mk := mark{id: id, col: int32(col), prev: m.head[id]}
		if freq != nil {
			mk.freq = freq[k]
		}
		m.marks = append(m.marks, mk)
		m.head[id] = int32(len(m.marks))
	}
}

// release clears the slots add set and returns the index to freeMarks.
func (m *queryMarks) release() {
	for _, mk := range m.marks {
		m.head[mk.id] = 0
	}
	m.marks = m.marks[:0]
	freeMarks.put(m)
}

// overlaps sets inter[i] to the number of ids query column i holds, for
// every query column, in one pass over a candidate column's ids.
func (m *queryMarks) overlaps(ids []uint32, inter []int32) {
	clear(inter)
	for _, id := range ids {
		for e := m.head[id]; e != 0; {
			mk := &m.marks[e-1]
			inter[mk.col]++
			e = mk.prev
		}
	}
}

// wordSums sets s[i] to wordSimilarity of query column i and a
// candidate column's word distribution (ids ascending, freq parallel),
// for every query column in one pass. Each s[i] adds its shared words
// in ascending word ID order with wordSimilarity's expression, so every
// sum is bit-identical to the pair's merge.
func (m *queryMarks) wordSums(ids []uint32, freq []float64, s []float64) {
	clear(s)
	for k, id := range ids {
		for e := m.head[id]; e != 0; {
			mk := &m.marks[e-1]
			s[mk.col] += math.Sqrt(mk.freq * freq[k])
			e = mk.prev
		}
	}
}

// scanScratch is the memory one scanning goroutine reuses across the
// candidate tables of a ScoreAmong call: the per-query-column results
// of the kernel, the flat weight matrix and the matcher, plus D3L's
// name-evidence memo.
type scanScratch struct {
	inter   []int32
	words   []float64
	w       []float64
	names   []float64
	matcher graph.Matcher
}

// newScanScratch takes scratch for nq query columns from freeScratch;
// put it back with freeScratch.put.
func newScanScratch(nq int) *scanScratch {
	sc := freeScratch.get()
	sc.inter = resize(sc.inter, nq)
	sc.words = resize(sc.words, nq)
	return sc
}

// matrix returns the weight matrix for nq query and nc candidate
// columns, row-major by query column.
func (sc *scanScratch) matrix(nq, nc int) []float64 {
	sc.w = resize(sc.w, nq*nc)
	return sc.w
}

// resize returns s with length n, reallocating only when it is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
