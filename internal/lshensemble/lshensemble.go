// Package lshensemble implements LSH Ensemble (Zhu, Nargesian, Pu,
// Miller — VLDB 2016) for Internet-scale domain search: given a query
// column Q and a containment threshold t, find indexed domains X with
// |Q ∩ X| / |Q| >= t, robustly under skewed domain cardinalities.
//
// The index partitions domains by cardinality into equi-depth
// partitions. Within a partition with cardinality upper bound u, a
// containment threshold t converts to a Jaccard lower bound
//
//	j*(t) = t|Q| / (|Q| + u - t|Q|)
//
// so each partition can be probed with MinHash LSH tuned to j*. To
// support query-time thresholds, every partition keeps one banded
// index per row count r in {1, 2, 4, ...} (the paper's bootstrap);
// at query time the (b, r) minimizing false-positive+false-negative
// mass at j* is selected and only the first b bands are probed.
package lshensemble

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"tablehound/internal/dict"
	"tablehound/internal/lsh"
	"tablehound/internal/minhash"
)

// Domain is one indexable column: a key, its distinct-value count, and
// its MinHash signature.
type Domain struct {
	Key  string
	Size int
	Sig  minhash.Signature
}

// Index is an LSH Ensemble over domains. Construct with New, Add all
// domains, then call Build before querying. A domain is known by its
// ordinal — the number of domains added before it — which is what
// Query returns; Key turns an ordinal back into the domain's key.
type Index struct {
	numHashes int
	numPart   int
	pending   []Domain // until Build
	keys      []string // ordinal -> key
	// order lists the ordinals by ascending (size, key): partitions are
	// consecutive runs of it, and a partition's banded indexes number
	// their signatures by position within the run.
	order []int32
	parts []partition
	built bool
}

type partition struct {
	lower, upper int          // inclusive cardinality range
	lo, hi       int          // the partition's run of Index.order
	byRows       []*lsh.Index // log2(rows r) -> banded index with floor(k/r) bands
}

// rowChoices are the row counts each partition maintains an index for:
// the powers of two up to numHashes.
func rowChoices(numHashes int) []int {
	var rs []int
	for r := 1; r <= numHashes; r *= 2 {
		rs = append(rs, r)
	}
	return rs
}

// New creates an ensemble with the given signature length and number of
// cardinality partitions. numPart=1 degenerates to plain MinHash LSH,
// which is the baseline the paper improves on.
func New(numHashes, numPart int) *Index {
	if numHashes <= 0 || numPart <= 0 {
		panic(fmt.Sprintf("lshensemble: numHashes=%d numPart=%d must be positive", numHashes, numPart))
	}
	return &Index{numHashes: numHashes, numPart: numPart}
}

// Add stages a domain for indexing. Must be called before Build.
func (ix *Index) Add(d Domain) error {
	if ix.built {
		return errors.New("lshensemble: Add after Build")
	}
	if len(d.Sig) < ix.numHashes {
		return fmt.Errorf("lshensemble: signature has %d hashes, need %d", len(d.Sig), ix.numHashes)
	}
	if d.Size <= 0 {
		return fmt.Errorf("lshensemble: domain %q has non-positive size %d", d.Key, d.Size)
	}
	ix.pending = append(ix.pending, d)
	return nil
}

// Build partitions the staged domains by cardinality (equi-depth) and
// constructs the per-partition banded indexes.
func (ix *Index) Build() error { return ix.BuildN(1) }

// BuildN is Build with the per-partition banded indexes constructed by
// up to `parallelism` workers (<=1 means sequential). Each (partition,
// row-count) index is independent and is filled by one worker in the
// same sorted domain order the sequential build uses, so the built
// index is identical at every parallelism level.
func (ix *Index) BuildN(parallelism int) error {
	if ix.built {
		return errors.New("lshensemble: Build called twice")
	}
	if len(ix.pending) == 0 {
		return errors.New("lshensemble: no domains added")
	}
	n := len(ix.pending)
	ix.keys = make([]string, n)
	ix.order = make([]int32, n)
	for i, d := range ix.pending {
		ix.keys[i], ix.order[i] = d.Key, int32(i)
	}
	slices.SortFunc(ix.order, func(a, b int32) int {
		da, db := &ix.pending[a], &ix.pending[b]
		return cmp.Or(cmp.Compare(da.Size, db.Size), cmp.Compare(da.Key, db.Key), cmp.Compare(a, b))
	})
	p := ix.numPart
	if p > n {
		p = n
	}
	rows := rowChoices(ix.numHashes)
	type job struct{ part, rows int }
	var jobs []job
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		if lo >= hi {
			continue
		}
		ix.parts = append(ix.parts, partition{
			lower:  ix.pending[ix.order[lo]].Size,
			upper:  ix.pending[ix.order[hi-1]].Size,
			lo:     lo,
			hi:     hi,
			byRows: make([]*lsh.Index, len(rows)),
		})
		for ri := range rows {
			jobs = append(jobs, job{part: len(ix.parts) - 1, rows: ri})
		}
	}
	fill := func(j job) error {
		part := &ix.parts[j.part]
		r := rows[j.rows]
		sub := lsh.New(ix.numHashes/r, r)
		for _, o := range ix.order[part.lo:part.hi] {
			if err := sub.Add(ix.pending[o].Sig); err != nil {
				return err
			}
		}
		sub.Build()
		part.byRows[j.rows] = sub
		return nil
	}
	if parallelism <= 1 || len(jobs) <= 1 {
		for _, j := range jobs {
			if err := fill(j); err != nil {
				return err
			}
		}
	} else {
		if parallelism > len(jobs) {
			parallelism = len(jobs)
		}
		var (
			next int64 = -1
			wg   sync.WaitGroup
			mu   sync.Mutex
			ferr error
		)
		wg.Add(parallelism)
		for w := 0; w < parallelism; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(jobs) {
						return
					}
					if err := fill(jobs[i]); err != nil {
						mu.Lock()
						if ferr == nil {
							ferr = err
						}
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		if ferr != nil {
			return ferr
		}
	}
	ix.pending = nil
	ix.built = true
	return nil
}

// Key returns the key of the domain with the given ordinal. Only valid
// after Build.
func (ix *Index) Key(ord int32) string { return ix.keys[ord] }

// NumPartitions returns the number of non-empty partitions built.
func (ix *Index) NumPartitions() int { return len(ix.parts) }

// Params returns the configured signature length and target partition
// count — the New arguments that, together with the added domains,
// fully determine the built index (Build sorts domains itself, so
// reconstruction from the same inputs is deterministic).
func (ix *Index) Params() (numHashes, numPart int) { return ix.numHashes, ix.numPart }

// jaccardThreshold converts a containment threshold into the Jaccard
// lower bound within a partition with cardinality upper bound u.
func jaccardThreshold(t float64, querySize, upper int) float64 {
	q := float64(querySize)
	j := t * q / (q + float64(upper) - t*q)
	if j > 1 {
		j = 1
	}
	if j <= 0 {
		j = minJaccard
	}
	return j
}

// minJaccard is the floor jaccardThreshold clamps a bound to.
const minJaccard = 1e-9

// paramCache memoizes optimalBootstrap: the numeric integration is
// ~10^4 S-curve evaluations, far too slow to repeat per query per
// partition. Thresholds are quantized to 1e-3 for the cache key.
var paramCache sync.Map // [2]int{numHashes, round(j*1000)} -> [2]int{b, r}

// optimalBootstrap returns the (bands, rows) bootstrapParams picks for
// the representative of j's 1e-3 bucket: key/1000, or minJaccard for
// key 0. Every j of a bucket gets that one answer whichever j filled
// the cache, so candidates never depend on the queries served before.
func optimalBootstrap(j float64, numHashes int) (bands, rows int) {
	q := int(j*1000 + 0.5)
	key := [2]int{numHashes, q}
	if v, ok := paramCache.Load(key); ok {
		p := v.([2]int)
		return p[0], p[1]
	}
	bands, rows = bootstrapParams(max(float64(q)/1000, minJaccard), numHashes)
	paramCache.Store(key, [2]int{bands, rows})
	return bands, rows
}

// bootstrapParams picks (bands, rows) among the bootstrap row choices
// minimizing FP+FN mass at Jaccard threshold j.
func bootstrapParams(j float64, numHashes int) (bands, rows int) {
	best := math.Inf(1)
	bands, rows = 1, numHashes
	for _, r := range rowChoices(numHashes) {
		maxB := numHashes / r
		for b := 1; b <= maxB; b++ {
			fp, fn := lsh.FalseProbabilities(j, b, r)
			cost := fp + fn
			if cost < best {
				best = cost
				bands, rows = b, r
			}
		}
	}
	return bands, rows
}

// scratch is one query's working memory: the dedupe set of the
// partition being probed and the ordinals gathered so far. It holds no
// pointer into any index, so the pool can be shared by all of them.
type scratch struct {
	seen lsh.Seen
	ords []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Query returns the ordinals of the candidate domains whose containment
// of the query is likely >= threshold, partition by partition in the
// order each partition's banded index meets them. querySize is the
// distinct-value count of the query column. Candidates are approximate:
// verify with exact containment for precision-critical uses.
func (ix *Index) Query(sig minhash.Signature, querySize int, threshold float64) ([]int32, error) {
	if !ix.built {
		return nil, errors.New("lshensemble: Query before Build")
	}
	if querySize <= 0 {
		return nil, fmt.Errorf("lshensemble: querySize must be positive, got %d", querySize)
	}
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("lshensemble: threshold %v out of [0,1]", threshold)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	ords := sc.ords[:0]
	for i := range ix.parts {
		part := &ix.parts[i]
		// A domain X can contain fraction t of Q only if |X| >= t|Q|.
		if float64(part.upper) < threshold*float64(querySize) {
			continue
		}
		j := jaccardThreshold(threshold, querySize, part.upper)
		b, r := optimalBootstrap(j, ix.numHashes)
		// A domain lives in one partition, so duplicates can only arise
		// within one banded index; its ordinals are positions in the
		// partition's run of order.
		sc.seen.Reset(part.hi - part.lo)
		from := len(ords)
		ords = part.byRows[bits.TrailingZeros(uint(r))].Query(ords, sig, b, &sc.seen)
		for k := from; k < len(ords); k++ {
			ords[k] = ix.order[part.lo+int(ords[k])]
		}
	}
	sc.ords = ords
	if len(ords) == 0 {
		return nil, nil
	}
	return slices.Clone(ords), nil
}

// Footprint reports the resident bytes of every partition's band
// tables next to an estimate of the map-per-band form they replace
// (see lsh.Index.Footprint).
func (ix *Index) Footprint() dict.Footprint {
	var f dict.Footprint
	for i := range ix.parts {
		for _, sub := range ix.parts[i].byRows {
			f.Accumulate(sub.Footprint())
		}
	}
	return f
}

// PartitionBounds returns the (lower, upper) cardinality bound of each
// partition, for introspection and tests.
func (ix *Index) PartitionBounds() [][2]int {
	out := make([][2]int, len(ix.parts))
	for i, p := range ix.parts {
		out[i] = [2]int{p.lower, p.upper}
	}
	return out
}
