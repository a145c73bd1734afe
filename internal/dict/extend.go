// Append-only vocabulary extension for incremental (delta) index
// builds. A base dictionary assigns IDs [0, base.Size()) in
// lexicographic order; Extend keeps every one of those assignments
// verbatim and appends the delta's new values at IDs >= base.Size(),
// sorted among themselves. Postings encoded against the base stay
// valid byte for byte, which is the invariant that lets a delta
// snapshot carry only the new tables' postings.
//
// The extended dictionary is NOT globally sorted (only each extension
// block is), but nothing downstream requires global sortedness: set
// operations work on any consistent value->ID bijection, and result
// tie-breaks use string keys, not IDs.
package dict

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Extend returns a new dictionary containing every entry of base at
// its original ID plus the given values (empties dropped, duplicates
// and already-interned values skipped) appended in sorted order at IDs
// starting at base.Size(). The base dictionary is not mutated and
// remains safe for concurrent readers. A nil base is treated as empty.
//
// No map of the root dictionary is copied: an extension looks a value
// up in its root's map, then in its own, which holds only the values
// appended since the root. Extending an extension keeps the same root
// and copies only that small map, so a chain of deltas stays two maps
// deep however long it grows.
func Extend(base *Dict, values []string) *Dict {
	fresh := make(map[string]struct{})
	for _, v := range values {
		if v == "" {
			continue
		}
		if _, ok := base.ID(v); ok {
			continue
		}
		fresh[v] = struct{}{}
	}
	appended := make([]string, 0, len(fresh))
	for v := range fresh {
		appended = append(appended, v)
	}
	sort.Strings(appended)

	n := base.Size()
	d := &Dict{values: make([]string, 0, n+len(appended))}
	var own map[string]uint32
	if base != nil {
		d.values = append(d.values, base.values...)
		d.root = base
		if base.root != nil {
			d.root, own = base.root, base.ids
		}
	}
	d.ids = make(map[string]uint32, len(own)+len(appended))
	for v, id := range own {
		d.ids[v] = id
	}
	for i, v := range appended {
		d.values = append(d.values, v)
		d.ids[v] = uint32(n + i)
	}
	return d
}

// Merge returns the sorted dictionary over base's values and every
// block's — the one a Builder over all of them builds — and remap, which
// takes an ID of the extension chain the blocks describe to its ID in
// the merged dictionary. The chain numbers base's values first, then
// each block's in turn from base.Size() on, as a run of Extend calls
// appends them; a block must hold only values the chain before it
// lacks, as Extend's appended blocks do, or Merge fails. No map of
// base's is copied.
func Merge(base *Dict, blocks ...[]string) (*Dict, []uint32, error) {
	type added struct {
		v  string
		id uint32
	}
	n := base.Size()
	var adds []added
	for _, b := range blocks {
		for _, v := range b {
			if v == "" {
				return nil, nil, errors.New("dict: merge: empty value")
			}
			adds = append(adds, added{v, uint32(n + len(adds))})
		}
	}
	slices.SortFunc(adds, func(a, b added) int { return strings.Compare(a.v, b.v) })
	total := n + len(adds)
	d := &Dict{
		values: make([]string, 0, total),
		ids:    make(map[string]uint32, total),
	}
	remap := make([]uint32, total)
	for i, j := 0, 0; i < n || j < len(adds); {
		var v string
		var ext uint32
		if j == len(adds) || (i < n && base.values[i] < adds[j].v) {
			v, ext = base.values[i], uint32(i)
			i++
		} else {
			v, ext = adds[j].v, adds[j].id
			j++
		}
		// base is sorted and adds are, so only a value met twice fails.
		if k := len(d.values); k > 0 && d.values[k-1] >= v {
			return nil, nil, fmt.Errorf("dict: merge: value %q interned twice", v)
		}
		id := uint32(len(d.values))
		d.values = append(d.values, v)
		d.ids[v] = id
		remap[ext] = id
	}
	return d, remap, nil
}
