// Package josie implements JOSIE (Zhu, Deng, Nargesian, Miller —
// SIGMOD 2019): exact top-k overlap set-similarity search for joinable
// table discovery. Given a query column's distinct values, it returns
// the k indexed columns with the largest exact value overlap.
//
// Three strategies are provided, matching the paper's ablation:
//
//   - MergeList reads the full posting list of every query token and
//     counts overlaps — optimal when lists are short.
//   - ProbeSet reads posting lists only to discover candidates, probing
//     each candidate's full token list for its exact overlap — optimal
//     when a few large candidates dominate.
//   - Adaptive (JOSIE proper) interleaves the two, using a cost model
//     and position-based overlap upper bounds to stop early.
//
// All three return the same answer — the first k sets under the total
// order (overlap descending, key ascending), keys included — and differ
// only in cost: every bound that lets a strategy skip work is strict,
// so a set tied with the k-th overlap is never dropped unseen.
package josie

import (
	"fmt"
	"slices"
	"sync"

	"tablehound/internal/invindex"
)

// Algorithm selects the search strategy.
type Algorithm int

// Strategies. Adaptive is JOSIE's cost-based algorithm.
const (
	MergeList Algorithm = iota
	ProbeSet
	Adaptive
)

func (a Algorithm) String() string {
	switch a {
	case MergeList:
		return "mergelist"
	case ProbeSet:
		return "probeset"
	case Adaptive:
		return "adaptive"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Result is one search hit.
type Result struct {
	Key     string
	Overlap int
}

// CostModel weights the two primitive operations: scanning one posting
// entry and reading one token of a candidate set (plus a per-probe
// seek overhead). Relative magnitudes, not units, drive decisions;
// weights are non-negative.
type CostModel struct {
	ReadPosting float64 // cost per posting entry scanned
	ReadToken   float64 // cost per set token read during a probe
	ProbeSeek   float64 // fixed overhead per probe
}

// DefaultCost mirrors the disk-resident setting of the paper, where a
// probe pays a seek before streaming the set.
func DefaultCost() CostModel {
	return CostModel{ReadPosting: 1, ReadToken: 1, ProbeSeek: 32}
}

// Searcher answers top-k overlap queries against a frozen index.
// Safe for concurrent use.
type Searcher struct {
	ix   *invindex.Index
	cost CostModel
}

// NewSearcher wraps an index with the default cost model.
func NewSearcher(ix *invindex.Index) *Searcher {
	return &Searcher{ix: ix, cost: DefaultCost()}
}

// NewSearcherCost wraps an index with an explicit cost model.
func NewSearcherCost(ix *invindex.Index, cm CostModel) *Searcher {
	return &Searcher{ix: ix, cost: cm}
}

// Stats reports the work a query performed, for benchmarking.
type Stats struct {
	PostingsRead int
	SetsProbed   int
	TokensRead   int
}

// TopK returns the k sets of a string-built index with the largest
// exact overlap with the query values, ordered (overlap descending,
// key ascending), plus the work counters. Sets with zero overlap are
// never returned.
func (s *Searcher) TopK(values []string, k int, algo Algorithm) ([]Result, Stats) {
	return s.topK(s.ix.QueryRanks(values), k, algo, nil)
}

// TopKIDs is TopK over an ID-built index, for a query already interned
// to deduplicated dictionary IDs; out-of-vocabulary IDs are dropped,
// exactly as unknown strings are. A non-nil allowed restricts the
// search to the sets with those keys (keys the index lacks are
// ignored; an empty non-nil list allows nothing): postings of other
// sets are skipped during traversal, so they never become candidates
// and the bounds and early stops see only the restricted search's own
// state. The answer is the unrestricted ranking filtered to the allowed
// sets and cut to k, whichever strategy runs.
func (s *Searcher) TopKIDs(ids []uint32, k int, algo Algorithm, allowed []string) ([]Result, Stats) {
	return s.topK(s.ix.QueryRanksIDs(ids), k, algo, allowed)
}

func (s *Searcher) topK(q []int32, k int, algo Algorithm, allowed []string) ([]Result, Stats) {
	if len(q) == 0 || k <= 0 {
		return nil, Stats{}
	}
	sc := getScratch()
	defer scratchPool.Put(sc)
	return s.search(sc, q, k, algo, allowed)
}

// search answers one query of sorted token ranks out of sc.
func (s *Searcher) search(sc *scratch, q []int32, k int, algo Algorithm, allowed []string) ([]Result, Stats) {
	var st Stats
	sc.begin(s.ix.NumSets(), len(q))
	if sc.masked = allowed != nil; sc.masked {
		for _, key := range allowed {
			if set, ok := s.ix.SetID(key); ok {
				sc.allowed[set] = sc.epoch
			}
		}
	}
	switch algo {
	case MergeList:
		s.mergeList(sc, q, &st)
	case ProbeSet:
		s.probeSet(sc, q, k, &st)
	default:
		s.adaptive(sc, q, k, &st)
	}
	return s.selectTopK(sc, k), st
}

// slot is the per-set state of one query. It means something only
// while stamp equals the scratch's epoch, which is how a query finds
// every slot empty without clearing any.
type slot struct {
	stamp uint32
	// ov is a lower bound on the set's overlap with the query: the
	// matches counted from the posting lists read so far, and the exact
	// overlap once verified (or once every list has been read).
	ov int32
	// lastPos is the position within the set of the last counted match;
	// tokens before it cannot match an unread query token.
	lastPos  int32
	verified bool
}

// scratch is the working memory of one query: dense arrays indexed by
// set ID in place of per-query maps. A scratch belongs to one goroutine
// between getScratch and scratchPool.Put, every query starts from a
// fresh epoch and zero-length buffers, and candidates are visited in
// the order the posting lists revealed them, so an answer never depends
// on which scratch the pool handed out or what used it last. It holds
// set IDs and counters only — no pointer into any index.
type scratch struct {
	epoch   uint32
	slots   []slot
	allowed []uint32 // allowed[set] == epoch: the set passes the query's mask
	masked  bool
	// order lists the query's candidates as discovered: query tokens
	// rarest first, each posting list by ascending set ID.
	order []int32
	// hist[v] counts the candidates whose lower bound is v (an overlap
	// never exceeds |q|); kth is the k-th best lower bound and above the
	// number of candidates strictly beyond it. Bounds only rise, so kth
	// only advances. hist[0] is scribbled on and never read.
	hist     []int32
	kth      int32
	above    int
	exact    int       // candidates whose ov is their exact overlap
	listCost []float64 // listCost[i]: posting entries from query token i on, priced
	byUB     []uint64  // unverified candidates keyed for the final upper-bound order
	top      []int32   // selectTopK's heap of set IDs
}

// scratchPool is shared by all searchers: a pool inside a Searcher
// would keep a dropped index reachable from the runtime's pool list.
var scratchPool sync.Pool

func getScratch() *scratch {
	if sc, ok := scratchPool.Get().(*scratch); ok {
		return sc
	}
	return new(scratch)
}

// begin starts an empty query state over numSets sets and qlen tokens.
func (sc *scratch) begin(numSets, qlen int) {
	if len(sc.slots) < numSets {
		// Fresh arrays carry stamp zero, which no epoch equals.
		sc.slots = make([]slot, numSets)
		sc.allowed = make([]uint32, numSets)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps from 2^32 queries ago would read as current
		clear(sc.slots)
		clear(sc.allowed)
		sc.epoch = 1
	}
	sc.order = sc.order[:0]
	sc.hist = append(sc.hist[:0], make([]int32, qlen+1)...)
	sc.kth, sc.above, sc.exact = 0, 0, 0
}

// skip reports whether the query's mask excludes the set.
func (sc *scratch) skip(set int32) bool {
	return sc.masked && sc.allowed[set] != sc.epoch
}

// admit makes the set a candidate with lower bound zero.
func (sc *scratch) admit(set int32) *slot {
	sl := &sc.slots[set]
	*sl = slot{stamp: sc.epoch}
	sc.order = append(sc.order, set)
	return sl
}

// raise moves one candidate's lower bound from old up to ov.
func (sc *scratch) raise(old, ov int32) {
	sc.hist[old]--
	sc.hist[ov]++
	if old <= sc.kth && ov > sc.kth {
		sc.above++
	}
}

// kthBound returns the k-th best lower bound over all candidates, zero
// while there are fewer than k. It is a lower bound on the k-th overlap
// of the final answer.
func (sc *scratch) kthBound(k int) int {
	for sc.above >= k {
		sc.kth++
		sc.above -= int(sc.hist[sc.kth])
	}
	return int(sc.kth)
}

// mergeList reads every posting list fully and counts overlaps.
func (s *Searcher) mergeList(sc *scratch, q []int32, st *Stats) {
	for _, tok := range q {
		pl := s.ix.Postings(tok)
		st.PostingsRead += len(pl)
		for _, p := range pl {
			if sc.skip(p.Set) {
				continue
			}
			sl := &sc.slots[p.Set]
			if sl.stamp != sc.epoch {
				sl = sc.admit(p.Set)
			}
			sl.ov++
		}
	}
	sc.exact = len(sc.order)
}

// probeSet discovers candidates from posting lists (rarest token
// first) and probes each new candidate for its exact overlap. Reading
// stops once the unread tokens are too few to reach the k-th overlap:
// strictly too few, because an undiscovered set that could only tie it
// may still win the tie on its key.
func (s *Searcher) probeSet(sc *scratch, q []int32, k int, st *Stats) {
	for i, tok := range q {
		if len(q)-i < sc.kthBound(k) {
			break
		}
		pl := s.ix.Postings(tok)
		st.PostingsRead += len(pl)
		for _, p := range pl {
			if sc.skip(p.Set) || sc.slots[p.Set].stamp == sc.epoch {
				continue
			}
			set := s.ix.Set(p.Set)
			st.SetsProbed++
			st.TokensRead += len(set) - int(p.Pos)
			// Every earlier posting list was read in full, so a set first
			// met here holds none of q[:i]; its tokens before p.Pos rank
			// below tok and match nothing from q[i:] either.
			sl := sc.admit(p.Set)
			sl.ov = int32(invindex.OverlapFrom(q, i, set, int(p.Pos)))
			sl.verified = true
			sc.exact++
			sc.raise(0, sl.ov)
		}
	}
}

// upperBound caps the overlap of an unverified candidate: the matches
// counted so far plus as many more as both the unread query tokens and
// the set's tokens after the last match allow.
func (s *Searcher) upperBound(set int32, sl *slot, remaining int) int {
	rest := s.ix.SetSize(set) - int(sl.lastPos) - 1
	if remaining < rest {
		rest = remaining
	}
	return int(sl.ov) + rest
}

// verify replaces a candidate's partial count with its exact overlap,
// merging the set's tokens after the last counted match with the query
// tokens from next on (the first one whose posting list is unread).
func (s *Searcher) verify(sc *scratch, q []int32, set int32, next int, st *Stats) {
	sl := &sc.slots[set]
	tokens := s.ix.Set(set)
	st.SetsProbed++
	st.TokensRead += len(tokens) - int(sl.lastPos)
	if more := invindex.OverlapFrom(q, next, tokens, int(sl.lastPos)+1); more > 0 {
		sc.raise(sl.ov, sl.ov+int32(more))
		sl.ov += int32(more)
	}
	sl.verified = true
	sc.exact++
}

// adaptive is JOSIE's cost-based algorithm: it streams posting lists
// accumulating partial overlaps (which are exact lower bounds), stops
// reading as soon as the unread tokens cannot reach the running k-th
// lower bound, and verifies the candidates that still can. While
// streaming, it probes at most one candidate per token read — the one
// with the best upper bound — when the cost model prices the probe below
// the posting lists the tighter bound may save. Expensive probes
// therefore reduce it to early-stopping MergeList; cheap probes approach
// ProbeSet.
func (s *Searcher) adaptive(sc *scratch, q []int32, k int, st *Stats) {
	// Remaining posting-list cost from query token i onward.
	sc.listCost = append(sc.listCost[:0], make([]float64, len(q)+1)...)
	listCost := sc.listCost
	for i := len(q) - 1; i >= 0; i-- {
		listCost[i] = listCost[i+1] + s.cost.ReadPosting*float64(s.ix.DF(q[i]))
	}

	stop := len(q) // index of the first unread query token
	for i := range q {
		remaining := len(q) - i // tokens not yet read, including q[i]
		kth := sc.kthBound(k)
		if remaining < kth {
			// Strict: a set no list has revealed yet may hold all the
			// unread tokens, tie the k-th overlap and win on its key.
			stop = i
			break
		}
		// Cost-gated incremental probe: verify the candidate with the
		// best upper bound if a probe is cheap relative to what a
		// tighter kth bound can save in posting reads. A probe reads at
		// least one token, so when even that is too dear no candidate
		// needs looking at.
		saving := listCost[i] - listCost[min(i+remaining/2+1, len(q))]
		if s.cost.ProbeSeek+s.cost.ReadToken < saving {
			best, bestUB := int32(-1), kth
			for _, set := range sc.order {
				sl := &sc.slots[set]
				if sl.verified {
					continue
				}
				ub := s.upperBound(set, sl, remaining)
				if ub > bestUB || (best < 0 && ub == bestUB && sc.exact < k) {
					best, bestUB = set, ub
				}
			}
			if best >= 0 {
				probe := s.cost.ProbeSeek + s.cost.ReadToken*float64(s.ix.SetSize(best)-int(sc.slots[best].lastPos))
				if probe < saving {
					s.verify(sc, q, best, i, st)
				}
			}
		}
		pl := s.ix.Postings(q[i])
		st.PostingsRead += len(pl)
		for _, p := range pl {
			if sc.skip(p.Set) {
				continue
			}
			sl := &sc.slots[p.Set]
			if sl.stamp != sc.epoch {
				sl = sc.admit(p.Set)
			} else if sl.verified {
				continue
			}
			sc.raise(sl.ov, sl.ov+1)
			sl.ov++
			sl.lastPos = p.Pos
		}
	}
	// If every query token was read, partial counts are exact overlaps
	// and no probes are needed. Otherwise verify in upper-bound order so
	// the k-th bound tightens fastest, and stop at the first candidate
	// that cannot reach it — strictly: one that can tie it is verified,
	// since only its exact overlap and key place it.
	remaining := len(q) - stop
	if remaining == 0 {
		sc.exact = len(sc.order)
		return
	}
	byUB := sc.byUB[:0]
	for _, set := range sc.order {
		if sl := &sc.slots[set]; !sl.verified {
			// Ascending keys sort by (upper bound desc, set ID asc).
			byUB = append(byUB, uint64(len(q)-s.upperBound(set, sl, remaining))<<32|uint64(set))
		}
	}
	sc.byUB = byUB
	slices.Sort(byUB)
	for _, key := range byUB {
		if len(q)-int(key>>32) < sc.kthBound(k) {
			break
		}
		s.verify(sc, q, int32(uint32(key)), stop, st)
	}
}

// after reports whether set a comes after set b in the answer order
// (overlap descending, key ascending).
func (s *Searcher) after(sc *scratch, a, b int32) bool {
	if oa, ob := sc.slots[a].ov, sc.slots[b].ov; oa != ob {
		return oa < ob
	}
	return s.ix.Key(a) > s.ix.Key(b)
}

// selectTopK returns the first k verified candidates in answer order,
// keeping a k-bounded heap whose root is the last of those kept. A
// candidate left unverified was proven unable to reach the k-th overlap.
func (s *Searcher) selectTopK(sc *scratch, k int) []Result {
	top := sc.top[:0]
	all := sc.exact == len(sc.order)
	for _, set := range sc.order {
		switch {
		case !all && !sc.slots[set].verified:
		case len(top) < k:
			top = append(top, set)
			for i := len(top) - 1; i > 0; {
				parent := (i - 1) / 2
				if !s.after(sc, top[i], top[parent]) {
					break
				}
				top[i], top[parent] = top[parent], top[i]
				i = parent
			}
		case s.after(sc, top[0], set):
			top[0] = set
			s.siftDown(sc, top)
		}
	}
	sc.top = top
	if len(top) == 0 {
		return nil
	}
	slices.SortFunc(top, func(a, b int32) int {
		if s.after(sc, b, a) {
			return -1
		}
		return 1
	})
	res := make([]Result, len(top))
	for i, set := range top {
		res[i] = Result{Key: s.ix.Key(set), Overlap: int(sc.slots[set].ov)}
	}
	return res
}

// siftDown restores the heap after its root was replaced.
func (s *Searcher) siftDown(sc *scratch, top []int32) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(top) {
			return
		}
		if c+1 < len(top) && s.after(sc, top[c+1], top[c]) {
			c++
		}
		if !s.after(sc, top[c], top[i]) {
			return
		}
		top[i], top[c] = top[c], top[i]
		i = c
	}
}
