package invindex

import (
	"fmt"

	"tablehound/internal/snap"
)

// ErrCorruptSnapshot marks a snapshot whose bytes or structure are
// invalid: truncation, checksum mismatch, trailing garbage, wrong
// section lengths, or out-of-range ranks. It aliases the shared
// snapshot-format sentinel so callers can match either.
var ErrCorruptSnapshot = snap.ErrCorrupt

// AppendSnapshot encodes the index payload. The index has no framing
// of its own: it is embedded in a larger snapshot (the join engine's
// section), whose container frames and checksums it. The set keys are
// not written: the embedding snapshot stores them once and hands them
// to DecodeSnapshot. Postings are rebuilt on decode from the stored
// sets — they are fully determined by them and roughly double the
// on-disk size if stored.
func (ix *Index) AppendSnapshot(e *snap.Encoder) {
	// The built-from-IDs flag is explicit: an ID-built index over
	// all-empty sets has zero tokens and would otherwise silently
	// round-trip as string-built.
	idBuilt := ix.idOf != nil
	e.Bool(idBuilt)
	if idBuilt {
		e.U32s(ix.idOf)
	} else {
		tokens := make([]string, len(ix.df))
		for tok, rank := range ix.tokenIDs {
			tokens[rank] = tok
		}
		e.Strs(tokens)
	}
	e.I32s(ix.df)
	e.U32(uint32(len(ix.sets)))
	for _, set := range ix.sets {
		e.I32s(set)
	}
}

// DecodeSnapshot rebuilds an index written by AppendSnapshot,
// validating every structural invariant the query paths rely on. keys
// are the sets' keys in set-ID order, one per stored set and distinct;
// the index keeps the slice. An ID-built index's IDs must be below
// idSpace, the size of their dictionary, since the largest one sizes
// the ID → rank table.
func DecodeSnapshot(d *snap.Decoder, idSpace int, keys []string) (*Index, error) {
	idBuilt := d.Bool()
	var ids []uint32
	var tokens []string
	if idBuilt {
		ids = d.U32s()
	} else {
		tokens = d.Strs()
	}
	df := d.I32s()
	numSets := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(keys) != numSets {
		return nil, fmt.Errorf("%w: %d keys vs %d sets", ErrCorruptSnapshot, len(keys), numSets)
	}
	if idBuilt {
		if len(ids) != len(df) {
			return nil, fmt.Errorf("%w: %d IDs vs %d token frequencies", ErrCorruptSnapshot, len(ids), len(df))
		}
	} else if len(tokens) != len(df) {
		return nil, fmt.Errorf("%w: %d tokens vs %d token frequencies", ErrCorruptSnapshot, len(tokens), len(df))
	}
	ix := &Index{
		df:       df,
		sets:     make([][]int32, numSets),
		keys:     keys,
		keyToSet: make(map[string]int32, numSets),
	}
	if idBuilt {
		if ids == nil {
			// Preserve the "ID-built" marker even with zero tokens.
			ids = []uint32{}
		}
		ix.idOf = ids
		maxID := uint32(0)
		for _, id := range ids {
			if int64(id) >= int64(idSpace) {
				return nil, fmt.Errorf("%w: ID %d outside a dictionary of %d", ErrCorruptSnapshot, id, idSpace)
			}
			if id > maxID {
				maxID = id
			}
		}
		ix.rankOfID = make([]int32, maxID+1)
		for i := range ix.rankOfID {
			ix.rankOfID[i] = -1
		}
		for rank, id := range ids {
			ix.rankOfID[id] = int32(rank)
		}
	} else {
		ix.tokenIDs = make(map[string]int32, len(tokens))
		for rank, tok := range tokens {
			ix.tokenIDs[tok] = int32(rank)
		}
	}
	// The count pass: decode every set, count each rank's postings and
	// hold the stored df to the counts, which JOSIE's cost model and
	// the planner's cost read; then lay the postings out as postingsCSR
	// does for a build.
	counts := make([]int32, len(df))
	for sid := 0; sid < numSets; sid++ {
		set := d.I32s()
		if d.Err() != nil {
			return nil, d.Err()
		}
		ix.sets[sid] = set
		if _, dup := ix.keyToSet[keys[sid]]; dup {
			return nil, fmt.Errorf("%w: duplicate set key %q", ErrCorruptSnapshot, keys[sid])
		}
		ix.keyToSet[keys[sid]] = int32(sid)
		for _, rank := range set {
			if rank < 0 || int(rank) >= len(counts) {
				return nil, fmt.Errorf("%w: rank %d out of range in set %d", ErrCorruptSnapshot, rank, sid)
			}
			counts[rank]++
		}
	}
	for rank, n := range counts {
		if df[rank] != n {
			return nil, fmt.Errorf("%w: token rank %d stores df %d over %d postings", ErrCorruptSnapshot, rank, df[rank], n)
		}
	}
	ix.postings = postingsCSR(ix.sets, counts)
	return ix, nil
}
