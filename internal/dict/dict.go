// Package dict implements the lake-wide value dictionary behind every
// exact set operation in the system: each distinct cell value is
// interned once to a dense uint32 ID, and all overlap/containment/
// Jaccard computations run on sorted integer postings (IDSet) instead
// of string hash maps — the representation JOSIE's posting lists and
// MATE's hash-based filters get their speed from.
//
// Determinism contract: Build assigns IDs in lexicographic order of
// the interned values, so ID order is exactly string order. Two builds
// over the same value multiset produce the same dictionary regardless
// of insertion order or parallelism, and any downstream structure that
// tie-breaks on IDs (e.g. the inverted index token ranking) behaves
// bit-identically to its historical string-keyed form.
//
// Out-of-vocabulary rule: query values are encoded through an Encoder,
// which assigns values missing from the dictionary ephemeral IDs at
// and above Size(). Indexed sets only ever contain IDs below Size(),
// so an OOV query value can never match an indexed value — exactly the
// semantics of probing a string map with an unindexed key — while
// still counting toward the query's cardinality (the denominator of
// containment and Jaccard).
package dict

import "sort"

// Dict is a frozen value dictionary. Build one with a Builder; a
// frozen Dict is immutable and safe for unbounded concurrent use.
type Dict struct {
	values []string          // ID -> value; ascending in a root dictionary
	ids    map[string]uint32 // value -> ID: a root's every value, an extension's appended ones
	// root is an extension's root dictionary (see Extend), whose values
	// keep their IDs and are looked up in its map; nil for a root.
	root *Dict
}

// Builder accumulates distinct values before freezing them into a
// Dict. Not safe for concurrent use.
type Builder struct {
	seen map[string]struct{}
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{seen: make(map[string]struct{})}
}

// Add interns values. Empty strings are dropped (they encode missing
// cells everywhere else in the system); duplicates are harmless.
func (b *Builder) Add(values ...string) {
	for _, v := range values {
		if v != "" {
			b.seen[v] = struct{}{}
		}
	}
}

// Len returns the number of distinct values staged so far.
func (b *Builder) Len() int { return len(b.seen) }

// Build freezes the staged values into a Dict, assigning IDs in
// lexicographic value order.
func (b *Builder) Build() *Dict {
	values := make([]string, 0, len(b.seen))
	for v := range b.seen {
		values = append(values, v)
	}
	sort.Strings(values)
	d := &Dict{
		values: values,
		ids:    make(map[string]uint32, len(values)),
	}
	for i, v := range values {
		d.ids[v] = uint32(i)
	}
	return d
}

// Size returns the number of interned values; valid IDs are
// [0, Size()). A nil Dict has size 0.
func (d *Dict) Size() int {
	if d == nil {
		return 0
	}
	return len(d.values)
}

// Value returns the interned string for an ID. The ID must be below
// Size().
func (d *Dict) Value(id uint32) string { return d.values[id] }

// ID returns the ID of a value, if interned.
func (d *Dict) ID(v string) (uint32, bool) {
	if d == nil {
		return 0, false
	}
	if d.root != nil {
		if id, ok := d.root.ids[v]; ok {
			return id, true
		}
	}
	id, ok := d.ids[v]
	return id, ok
}

// EncodeKnown encodes values that must all be interned, returning the
// sorted IDSet and true, or nil and false if any value (other than the
// empty string) is out of vocabulary. Duplicates are collapsed. Use
// this for index-side sets, where cross-set matching requires every
// member to share the lake-wide ID space.
func (d *Dict) EncodeKnown(values []string) (IDSet, bool) {
	if len(values) == 0 {
		return nil, true
	}
	ids := make([]uint32, 0, len(values))
	for _, v := range values {
		if v == "" {
			continue
		}
		id, ok := d.ID(v)
		if !ok {
			return nil, false
		}
		ids = append(ids, id)
	}
	return newSortedDedup(ids), true
}

// Decode returns the values of an IDSet (ascending, i.e. sorted
// lexicographically). Every ID must be below Size().
func (d *Dict) Decode(ids IDSet) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = d.values[id]
	}
	return out
}

// Intern returns the dictionary's canonical instance of v when
// interned, else v unchanged. Callers that retain values long-term
// (e.g. universe maps) use it so one interned copy backs every
// retained reference.
func (d *Dict) Intern(v string) string {
	if id, ok := d.ID(v); ok {
		return d.values[id]
	}
	return v
}

// Encoder encodes query values against a Dict, assigning ephemeral
// IDs (>= Size()) to out-of-vocabulary values. Ephemeral assignments
// are memoized, so several columns of one query encoded through the
// same Encoder agree on shared OOV values. An Encoder is cheap, meant
// to live for one query, and not safe for concurrent use; the IDSets
// it returns are plain data and may be read concurrently. The Dict
// may be nil, in which case every value is ephemeral (still internally
// consistent — useful for comparing two ad-hoc sets).
type Encoder struct {
	d   *Dict
	oov map[string]uint32
}

// Encoder returns a fresh query encoder over the dictionary.
func (d *Dict) Encoder() *Encoder { return &Encoder{d: d} }

func (e *Encoder) encode(v string) uint32 {
	if id, ok := e.d.ID(v); ok {
		return id
	}
	if id, ok := e.oov[v]; ok {
		return id
	}
	if e.oov == nil {
		e.oov = make(map[string]uint32)
	}
	id := uint32(e.d.Size() + len(e.oov))
	e.oov[v] = id
	return id
}

// Encode returns the sorted IDSet of values (empties dropped,
// duplicates collapsed), assigning ephemeral IDs to OOV values.
func (e *Encoder) Encode(values []string) IDSet {
	ids := make([]uint32, 0, len(values))
	for _, v := range values {
		if v == "" {
			continue
		}
		ids = append(ids, e.encode(v))
	}
	return newSortedDedup(ids)
}

// newSortedDedup sorts ids ascending and collapses duplicates in
// place.
func newSortedDedup(ids []uint32) IDSet {
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return IDSet(out)
}

// Footprint describes the resident memory of a dictionary or of the
// ID-encoded sets built over it; see the memstats tooling.
type Footprint struct {
	Count       int   // interned values / encoded sets / set members
	Bytes       int64 // measured bytes of the integer representation
	LegacyBytes int64 // estimated bytes of the replaced string form
}

// Per-entry overheads of a Footprint estimate, shared by every
// structure that reports one.
const (
	SliceHeaderBytes  = 24 // slice header: pointer + length + capacity
	StringHeaderBytes = 16 // string header: pointer + length
	MapEntryBytes     = 32 // amortized hash-map bucket cost per entry
)

// Footprint reports the dictionary's own cost: one canonical copy of
// every distinct value plus the ID map.
func (d *Dict) Footprint() Footprint {
	var f Footprint
	if d == nil {
		return f
	}
	f.Count = len(d.values)
	for _, v := range d.values {
		f.Bytes += int64(len(v)) + StringHeaderBytes
	}
	// value->ID map entries.
	f.Bytes += int64(len(d.values)) * (StringHeaderBytes + 4 + MapEntryBytes)
	return f
}

// SetFootprint reports the cost of one encoded set next to an
// estimate of the map[string]struct{} it replaced (per-member string
// payload + header + map overhead).
func (d *Dict) SetFootprint(ids IDSet) Footprint {
	f := Footprint{Count: len(ids), Bytes: int64(len(ids)) * 4}
	for _, id := range ids {
		if int(id) < d.Size() {
			f.LegacyBytes += int64(len(d.values[id])) + StringHeaderBytes + MapEntryBytes
		} else {
			f.LegacyBytes += StringHeaderBytes + MapEntryBytes
		}
	}
	return f
}

// Accumulate adds other into f field-wise.
func (f *Footprint) Accumulate(other Footprint) {
	f.Count += other.Count
	f.Bytes += other.Bytes
	f.LegacyBytes += other.LegacyBytes
}
