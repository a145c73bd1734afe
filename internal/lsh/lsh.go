// Package lsh implements classic MinHash LSH with banding: a signature
// of k hashes is split into b bands of r rows; two sets collide in a
// band with probability J^r, so the probability of colliding in at
// least one band follows the S-curve 1-(1-J^r)^b. This is the index
// used by TUS and the per-partition building block of LSH Ensemble.
package lsh

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tablehound/internal/dict"
	"tablehound/internal/minhash"
)

// Index is a banded MinHash LSH index over signatures. A signature is
// known by its ordinal — the number of signatures added before it —
// and callers keep whatever that ordinal stands for (a column key, a
// graph node) in an array of their own. Add every signature, then
// Build; a built Index is immutable and safe for concurrent queries.
type Index struct {
	bands, rows int
	staged      []minhash.Signature // until Build
	n           int                 // signatures indexed
	tables      []bandTable         // one per band, after Build
}

// bandTable is one band's buckets as flat arrays. Entries are grouped
// by bucket hash, buckets in order of first appearance and ordinals
// ascending within a bucket (which is insertion order); hashes runs
// parallel to ords, so a bucket is a run of equal hashes. dir is an
// open-addressed directory with linear probing, a power of two at
// least twice the entry count: a slot holds 1 + the offset of a
// bucket's first entry, 0 when empty.
type bandTable struct {
	dir    []uint32
	hashes []uint64
	ords   []int32
}

// New creates an index with b bands of r rows. Signatures added must
// have at least b*r hashes; extra hashes are ignored.
func New(bands, rows int) *Index {
	if bands <= 0 || rows <= 0 {
		panic(fmt.Sprintf("lsh: bands=%d rows=%d must be positive", bands, rows))
	}
	return &Index{bands: bands, rows: rows}
}

// Params returns the (bands, rows) configuration.
func (ix *Index) Params() (bands, rows int) { return ix.bands, ix.rows }

// Len returns the number of signatures added.
func (ix *Index) Len() int { return ix.n + len(ix.staged) }

// bucket hashes one band slice of a signature: FNV-1a over the hashes'
// little-endian bytes, unrolled per hash.
func bucket(band []uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range band {
		h = (h ^ v&0xff) * prime
		h = (h ^ v>>8&0xff) * prime
		h = (h ^ v>>16&0xff) * prime
		h = (h ^ v>>24&0xff) * prime
		h = (h ^ v>>32&0xff) * prime
		h = (h ^ v>>40&0xff) * prime
		h = (h ^ v>>48&0xff) * prime
		h = (h ^ v>>56) * prime
	}
	return h
}

// Add stages a signature; its ordinal is Len before the call. The
// signature is read again by Build and must not change until then.
func (ix *Index) Add(sig minhash.Signature) error {
	if ix.tables != nil {
		return errors.New("lsh: Add after Build")
	}
	if len(sig) < ix.bands*ix.rows {
		return fmt.Errorf("lsh: signature has %d hashes, need %d", len(sig), ix.bands*ix.rows)
	}
	ix.staged = append(ix.staged, sig)
	return nil
}

// Build freezes the staged signatures into the band tables and lets go
// of the signatures themselves.
func (ix *Index) Build() {
	if ix.tables != nil {
		return
	}
	n := len(ix.staged)
	size := 1
	for size < 2*n {
		size <<= 1
	}
	// Working arrays shared by all bands: each entry's hash and bucket,
	// and per bucket (numbered by first appearance) its first entry in
	// staging order, then its fill cursor in the grouped order.
	hashes := make([]uint64, n)
	bucketOf := make([]int32, n)
	cursor := make([]int32, 0, n)
	// One block per array kind, cut into the bands' tables.
	dirs := make([]uint32, ix.bands*size)
	grouped := make([]uint64, ix.bands*n)
	ords := make([]int32, ix.bands*n)
	ix.tables = make([]bandTable, ix.bands)
	for b := range ix.tables {
		t := bandTable{
			dir:    dirs[b*size : (b+1)*size : (b+1)*size],
			hashes: grouped[b*n : (b+1)*n : (b+1)*n],
			ords:   ords[b*n : (b+1)*n : (b+1)*n],
		}
		// Pass 1: assign buckets through the directory and count them;
		// a slot holds 1 + the bucket number for now.
		cursor = cursor[:0]
		for i, sig := range ix.staged {
			h := bucket(sig[b*ix.rows : (b+1)*ix.rows])
			hashes[i] = h
			slot := int(h) & (size - 1)
			for t.dir[slot] != 0 && hashes[cursor[t.dir[slot]-1]] != h {
				slot = (slot + 1) & (size - 1)
			}
			if t.dir[slot] == 0 {
				cursor = append(cursor, int32(i))
				t.dir[slot] = uint32(len(cursor))
			}
			bucketOf[i] = int32(t.dir[slot] - 1)
		}
		// Bucket sizes, then offsets: cursor[k] becomes where bucket k's
		// next entry goes.
		for k := range cursor {
			cursor[k] = 0
		}
		for _, k := range bucketOf {
			cursor[k]++
		}
		next := int32(0)
		for k, c := range cursor {
			cursor[k], next = next, next+c
		}
		for slot, v := range t.dir {
			if v != 0 {
				t.dir[slot] = uint32(cursor[v-1]) + 1
			}
		}
		// Pass 2: place entries in staging order, so ordinals ascend
		// within each bucket.
		for i, k := range bucketOf {
			t.hashes[cursor[k]], t.ords[cursor[k]] = hashes[i], int32(i)
			cursor[k]++
		}
		ix.tables[b] = t
	}
	ix.n, ix.staged = n, nil
}

// Seen is a reusable set of ordinals (or of any small non-negative
// integers): Reset empties it in O(1), so one Seen serves every query
// its owner makes. Not safe for concurrent use.
type Seen struct {
	stamp []uint32 // stamp[i] == epoch: i is in the set
	epoch uint32
}

// Reset empties the set and makes room for members below n.
func (s *Seen) Reset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n) // stamp zero, which no epoch equals
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 2^32 resets ago would read as current
		clear(s.stamp)
		s.epoch = 1
	}
}

// Add inserts i and reports whether it was absent.
func (s *Seen) Add(i int32) bool {
	if s.stamp[i] == s.epoch {
		return false
	}
	s.stamp[i] = s.epoch
	return true
}

// Query appends to dst the ordinals colliding with sig in any of the
// first `bands` bands (clamped to the index's), each once, in order of
// first collision: band by band, insertion order within a bucket.
// Using fewer bands lowers the collision probability to 1-(1-j^r)^n,
// which lets one physical index serve several sensitivity levels (LSH
// Ensemble's bootstrap). seen deduplicates; the caller Resets it to at
// least Len beforehand, and members it already holds are skipped. An
// index not yet built, or a signature too short, matches nothing.
func (ix *Index) Query(dst []int32, sig minhash.Signature, bands int, seen *Seen) []int32 {
	if bands > len(ix.tables) {
		bands = len(ix.tables)
	}
	if len(sig) < bands*ix.rows {
		return dst
	}
	for b := 0; b < bands; b++ {
		t := &ix.tables[b]
		h := bucket(sig[b*ix.rows : (b+1)*ix.rows])
		mask := len(t.dir) - 1
		for slot := int(h) & mask; t.dir[slot] != 0; slot = (slot + 1) & mask {
			j := int(t.dir[slot] - 1)
			if t.hashes[j] != h {
				continue
			}
			for ; j < len(t.hashes) && t.hashes[j] == h; j++ {
				if o := t.ords[j]; seen.Add(o) {
					dst = append(dst, o)
				}
			}
			break
		}
	}
	return dst
}

// Footprint reports the resident bytes of the band tables next to an
// estimate of the form they replace, a Go map per band from bucket hash
// to the list of string keys: a map entry holding the hash and a slice
// header per bucket, a string header per entry, and the
// key-to-signature map entry per key
// (the report's fixed overheads: string header 16 B, slice header
// 24 B, map entry 32 B). Count is the number of band entries.
func (ix *Index) Footprint() dict.Footprint {
	var f dict.Footprint
	for b := range ix.tables {
		t := &ix.tables[b]
		buckets := 0
		for _, v := range t.dir {
			if v != 0 {
				buckets++
			}
		}
		f.Count += len(t.ords)
		f.Bytes += int64(len(t.dir))*4 + int64(len(t.hashes))*8 + int64(len(t.ords))*4
		f.LegacyBytes += int64(buckets)*(8+24+32) + int64(len(t.ords))*16
	}
	f.LegacyBytes += int64(ix.n) * (16 + 24 + 32)
	return f
}

// CollisionProbability returns the probability that two sets with
// Jaccard similarity j collide in at least one band: 1-(1-j^r)^b.
func CollisionProbability(j float64, bands, rows int) float64 {
	return 1 - math.Pow(1-math.Pow(j, float64(rows)), float64(bands))
}

// FalseProbabilities numerically integrates the S-curve to estimate
// false-positive mass below the threshold and false-negative mass
// above it, the objective LSH Ensemble minimizes when tuning (b, r).
func FalseProbabilities(threshold float64, bands, rows int) (fp, fn float64) {
	const steps = 100
	dx := threshold / steps
	for i := 0; i < steps; i++ {
		x := dx * (float64(i) + 0.5)
		fp += CollisionProbability(x, bands, rows) * dx
	}
	dy := (1 - threshold) / steps
	for i := 0; i < steps; i++ {
		y := threshold + dy*(float64(i)+0.5)
		fn += (1 - CollisionProbability(y, bands, rows)) * dy
	}
	return fp, fn
}

// optimalKey is OptimalParams' argument list, its memo key.
type optimalKey struct {
	threshold          float64
	numHashes          int
	fpWeight, fnWeight float64
}

// optimalMemo caches OptimalParams process-wide: a pure function of
// its arguments whose O(numHashes · ln numHashes) numeric integrations
// every TUS and Aurum build, load and merge would otherwise repeat for
// the same handful of settings. The lock is held across a computation,
// so concurrent first calls compute once.
var optimalMemo = struct {
	sync.Mutex
	m map[optimalKey][2]int
}{m: make(map[optimalKey][2]int)}

// OptimalParams chooses (bands, rows) with bands*rows <= numHashes
// minimizing weighted false-positive + false-negative mass at the given
// Jaccard threshold. Weights follow datasketch's convention.
func OptimalParams(threshold float64, numHashes int, fpWeight, fnWeight float64) (bands, rows int) {
	key := optimalKey{threshold, numHashes, fpWeight, fnWeight}
	optimalMemo.Lock()
	defer optimalMemo.Unlock()
	if p, ok := optimalMemo.m[key]; ok {
		return p[0], p[1]
	}
	best := math.Inf(1)
	bands, rows = 1, numHashes
	for b := 1; b <= numHashes; b++ {
		maxR := numHashes / b
		for r := 1; r <= maxR; r++ {
			fp, fn := FalseProbabilities(threshold, b, r)
			cost := fpWeight*fp + fnWeight*fn
			if cost < best {
				best = cost
				bands, rows = b, r
			}
		}
	}
	optimalMemo.m[key] = [2]int{bands, rows}
	return bands, rows
}
