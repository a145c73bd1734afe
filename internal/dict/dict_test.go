package dict

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"tablehound/internal/minhash"
)

// randValues draws n values (with duplicates and empties mixed in)
// from a vocabulary of size vocab.
func randValues(rng *rand.Rand, n, vocab int) []string {
	out := make([]string, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = "" // empties must be dropped everywhere
		default:
			out[i] = fmt.Sprintf("v%03d", rng.Intn(vocab))
		}
	}
	return out
}

func TestLexicographicIDAssignment(t *testing.T) {
	b := NewBuilder()
	b.Add("pear", "apple", "fig", "", "apple")
	d := b.Build()
	if d.Size() != 3 {
		t.Fatalf("size = %d, want 3 (empty dropped, dup collapsed)", d.Size())
	}
	want := []string{"apple", "fig", "pear"}
	for i, v := range want {
		if d.Value(uint32(i)) != v {
			t.Errorf("Value(%d) = %q, want %q", i, d.Value(uint32(i)), v)
		}
		if id, ok := d.ID(v); !ok || id != uint32(i) {
			t.Errorf("ID(%q) = %d,%v, want %d,true", v, id, ok, i)
		}
	}
}

func TestBuildOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := randValues(rng, 500, 200)
	b1 := NewBuilder()
	b1.Add(vals...)
	d1 := b1.Build()
	// Same multiset, reversed insertion order.
	b2 := NewBuilder()
	for i := len(vals) - 1; i >= 0; i-- {
		b2.Add(vals[i])
	}
	d2 := b2.Build()
	if d1.Size() != d2.Size() {
		t.Fatalf("sizes differ: %d vs %d", d1.Size(), d2.Size())
	}
	for id := uint32(0); int(id) < d1.Size(); id++ {
		if d1.Value(id) != d2.Value(id) {
			t.Fatalf("ID %d: %q vs %q", id, d1.Value(id), d2.Value(id))
		}
	}
}

// TestSetOpsMatchMinhashSets is the core parity property: Overlap,
// Jaccard, and Containment over encoded IDSets must be bit-identical
// to the string-set reference implementations in minhash — including
// duplicates, empties, and out-of-vocabulary query values.
func TestSetOpsMatchMinhashSets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// The dictionary covers only part of the vocabulary, so some
		// values are OOV and must flow through ephemeral IDs.
		lake := randValues(rng, 300, 150)
		db := NewBuilder()
		db.Add(lake...)
		d := db.Build()

		a := randValues(rng, rng.Intn(60), 200) // vocab 200 > 150: OOV mixed in
		b := randValues(rng, rng.Intn(60), 200)
		enc := d.Encoder()
		sa, sb := enc.Encode(a), enc.Encode(b)
		ra, rb := minhash.NewSet(a), minhash.NewSet(b)

		if got, want := Overlap(sa, sb), minhash.OverlapSets(ra, rb); got != want {
			t.Fatalf("trial %d: Overlap = %d, want %d", trial, got, want)
		}
		if got, want := Jaccard(sa, sb), minhash.JaccardSets(ra, rb); got != want {
			t.Fatalf("trial %d: Jaccard = %v, want %v", trial, got, want)
		}
		if got, want := Containment(sa, sb), minhash.ContainmentSets(ra, rb); got != want {
			t.Fatalf("trial %d: Containment = %v, want %v", trial, got, want)
		}
		if got, want := len(Intersect(sa, sb)), minhash.OverlapSets(ra, rb); got != want {
			t.Fatalf("trial %d: len(Intersect) = %d, want %d", trial, got, want)
		}
		if got, want := len(Union(sa, sb)), len(ra)+len(rb)-minhash.OverlapSets(ra, rb); got != want {
			t.Fatalf("trial %d: len(Union) = %d, want %d", trial, got, want)
		}
	}
}

func TestSetOpsEdgeCases(t *testing.T) {
	var empty IDSet
	some := IDSet{1, 5, 9}
	if Overlap(empty, empty) != 0 || Overlap(empty, some) != 0 {
		t.Error("overlap with empty must be 0")
	}
	if Jaccard(empty, empty) != 0 {
		t.Error("Jaccard(∅,∅) must be 0 (matching minhash.JaccardSets)")
	}
	if Jaccard(some, some) != 1 {
		t.Error("Jaccard(x,x) must be 1")
	}
	if Containment(empty, some) != 0 {
		t.Error("Containment with empty query must be 0")
	}
	if Containment(some, some) != 1 {
		t.Error("Containment(x,x) must be 1")
	}
	if Union(empty, empty) != nil || Intersect(empty, some) != nil {
		t.Error("empty results must be nil")
	}
}

// TestGallopMatchesLinear forces the galloping path (size skew beyond
// gallopRatio) and checks it against the plain merge.
func TestGallopMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		small := make([]uint32, rng.Intn(8)+1)
		for i := range small {
			small[i] = uint32(rng.Intn(10000))
		}
		big := make([]uint32, 1000+rng.Intn(2000))
		for i := range big {
			big[i] = uint32(rng.Intn(10000))
		}
		a, b := NewIDSet(small), NewIDSet(big)
		if len(b) < gallopRatio*len(a) {
			continue // skew too small; other trials cover it
		}
		want := 0
		for _, x := range a {
			if b.Contains(x) {
				want++
			}
		}
		if got := gallopOverlap(a, b); got != want {
			t.Fatalf("trial %d: gallopOverlap = %d, want %d", trial, got, want)
		}
		if got := Overlap(a, b); got != want {
			t.Fatalf("trial %d: Overlap = %d, want %d", trial, got, want)
		}
	}
}

func TestEncoderOOV(t *testing.T) {
	db := NewBuilder()
	db.Add("a", "b", "c")
	d := db.Build()
	enc := d.Encoder()
	ids := enc.Encode([]string{"b", "zzz", "yyy", "zzz", ""})
	if len(ids) != 3 {
		t.Fatalf("len = %d, want 3 (dup zzz collapsed, empty dropped)", len(ids))
	}
	oov := 0
	for _, id := range ids {
		if int(id) >= d.Size() {
			oov++
		}
	}
	if oov != 2 {
		t.Fatalf("oov count = %d, want 2", oov)
	}
	// Memoized: the same OOV value through the same encoder gets the
	// same ephemeral ID, so two columns of one query can overlap on it.
	again := enc.Encode([]string{"zzz"})
	if Overlap(ids, again) != 1 {
		t.Error("shared OOV value must overlap across one encoder's sets")
	}
	// A separate EncodeKnown must reject OOV outright.
	if _, ok := d.EncodeKnown([]string{"a", "zzz"}); ok {
		t.Error("EncodeKnown must fail on OOV input")
	}
	if got, ok := d.EncodeKnown([]string{"c", "a", "", "a"}); !ok || len(got) != 2 {
		t.Errorf("EncodeKnown = %v,%v, want 2 ids", got, ok)
	}
}

// TestSignParity: signatures computed from cached ID hashes must be
// bit-identical to signing the underlying strings, with and without
// OOV values in the set.
func TestHashValueMatchesFNV(t *testing.T) {
	// Reference FNV-1a (hash/fnv parameters) + splitmix64, as the
	// pre-inline implementation computed it.
	ref := func(v string) uint64 {
		h := uint64(14695981039346656037)
		for _, b := range []byte(v) {
			h ^= uint64(b)
			h *= 1099511628211
		}
		// splitmix64
		x := h + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	for _, v := range []string{"", "a", "hello world", "Ünïcodé", "v042"} {
		if got, want := minhash.HashValue(v), ref(v); got != want {
			t.Errorf("HashValue(%q) = %#x, want %#x", v, got, want)
		}
	}
}

func TestDecodeIntern(t *testing.T) {
	db := NewBuilder()
	db.Add("b", "a", "c")
	d := db.Build()
	ids, _ := d.EncodeKnown([]string{"c", "a"})
	got := d.Decode(ids)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("Decode = %v, want [a c]", got)
	}
	if d.Intern("a") != "a" || d.Intern("zzz") != "zzz" {
		t.Error("Intern must return the value either way")
	}
}

func TestFootprint(t *testing.T) {
	db := NewBuilder()
	db.Add("alpha", "beta", "gamma")
	d := db.Build()
	f := d.Footprint()
	if f.Count != 3 || f.Bytes <= 0 {
		t.Fatalf("dict footprint = %+v", f)
	}
	ids, _ := d.EncodeKnown([]string{"alpha", "beta"})
	sf := d.SetFootprint(ids)
	if sf.Count != 2 || sf.Bytes != 8 || sf.LegacyBytes <= sf.Bytes {
		t.Fatalf("set footprint = %+v", sf)
	}
	var tot Footprint
	tot.Accumulate(f)
	tot.Accumulate(sf)
	if tot.Count != 5 {
		t.Fatalf("accumulate count = %d", tot.Count)
	}
}

// TestConcurrentReads exercises the frozen-Dict concurrency contract
// under -race: unbounded concurrent ID lookups, set operations, and
// per-goroutine encoders over one shared dictionary.
func TestConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lake := randValues(rng, 1000, 400)
	db := NewBuilder()
	db.Add(lake...)
	d := db.Build()
	sets := make([]IDSet, 16)
	queries := make([][]string, 16)
	for i := range sets {
		vals := randValues(rand.New(rand.NewSource(int64(i))), 100, 500)
		queries[i] = vals
		sets[i], _ = d.EncodeKnown(lake[:50])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			enc := d.Encoder() // encoders are per-goroutine
			for i := range sets {
				q := enc.Encode(queries[i])
				_ = Overlap(q, sets[i])
				_ = Jaccard(q, sets[i])
				_ = Containment(q, sets[i])
				_, _ = d.ID(queries[i][0])
			}
		}(g)
	}
	wg.Wait()
}

func TestNewIDSetSortsAndDedups(t *testing.T) {
	s := NewIDSet([]uint32{5, 1, 5, 3, 1})
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		t.Fatal("not sorted")
	}
	if len(s) != 3 {
		t.Fatalf("len = %d, want 3", len(s))
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Error("Contains wrong")
	}
}

// TestMergeEqualsBuild folds a base and a chain of Extend blocks with
// Merge: the result is the dictionary a Builder over every value
// builds, and remap carries each extended ID to the
// merged ID of the same value. A block that repeats a value fails.
func TestMergeEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := NewBuilder()
	baseVals := randValues(rng, 300, 400)
	all.Add(baseVals...)
	b := NewBuilder()
	b.Add(baseVals...)
	ext := b.Build()
	base := ext
	var blocks [][]string
	for range 3 {
		vals := randValues(rng, 100, 600)
		all.Add(vals...)
		next := Extend(ext, vals)
		var block []string
		for i := ext.Size(); i < next.Size(); i++ {
			block = append(block, next.Value(uint32(i)))
		}
		blocks = append(blocks, block)
		ext = next
	}
	want := all.Build()
	got, remap, err := Merge(base, blocks...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() {
		t.Fatalf("merged size %d, built %d", got.Size(), want.Size())
	}
	for i := 0; i < want.Size(); i++ {
		id := uint32(i)
		if got.Value(id) != want.Value(id) {
			t.Fatalf("ID %d: merged %q, built %q", i, got.Value(id), want.Value(id))
		}
		if gid, ok := got.ID(want.Value(id)); !ok || gid != id {
			t.Fatalf("ID(%q) = %d, %v; want %d", want.Value(id), gid, ok, i)
		}
	}
	if len(remap) != ext.Size() {
		t.Fatalf("remap covers %d IDs, the chain has %d", len(remap), ext.Size())
	}
	for i, m := range remap {
		if got.Value(m) != ext.Value(uint32(i)) {
			t.Fatalf("remap[%d] = %d holds %q, extended ID holds %q", i, m, got.Value(m), ext.Value(uint32(i)))
		}
	}
	if _, _, err := Merge(base, []string{base.Value(0)}); err == nil {
		t.Error("a block repeating a base value merged")
	}
	if _, _, err := Merge(base, []string{"zz-new"}, []string{"zz-new"}); err == nil {
		t.Error("two blocks adding one value merged")
	}
}

// flatExtend is Extend as a flat copy: the base's values and its whole
// value → ID map copied, the new values appended in sorted order. The
// layered Extend must behave exactly like it.
func flatExtend(base *Dict, values []string) *Dict {
	d := &Dict{ids: make(map[string]uint32)}
	for i := 0; i < base.Size(); i++ {
		v := base.Value(uint32(i))
		d.values = append(d.values, v)
		d.ids[v] = uint32(i)
	}
	var fresh []string
	for _, v := range values {
		if _, ok := d.ids[v]; !ok && v != "" && !slices.Contains(fresh, v) {
			fresh = append(fresh, v)
		}
	}
	slices.Sort(fresh)
	for _, v := range fresh {
		d.ids[v] = uint32(len(d.values))
		d.values = append(d.values, v)
	}
	return d
}

// TestExtendChainEqualsFlatCopy: three chained Extends answer every
// lookup and encoding a flat copy does, and none holds its root's map:
// each looks the root's values up there and keeps only the values
// appended since.
func TestExtendChainEqualsFlatCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	b.Add(randValues(rng, 200, 300)...)
	root := b.Build()
	got, want := root, root
	probe := randValues(rng, 400, 900)
	for step := 0; step < 3; step++ {
		vals := append(randValues(rng, 60, 900), "", root.Value(uint32(step)))
		got, want = Extend(got, vals), flatExtend(want, vals)
		if got.root != root {
			t.Fatalf("extension %d: root is not the base dictionary", step)
		}
		if len(got.ids) != got.Size()-root.Size() {
			t.Fatalf("extension %d: own map holds %d values, %d were appended", step, len(got.ids), got.Size()-root.Size())
		}
		if got.Size() != want.Size() {
			t.Fatalf("extension %d: size %d, flat copy %d", step, got.Size(), want.Size())
		}
		for i := 0; i < want.Size(); i++ {
			v := want.Value(uint32(i))
			if got.Value(uint32(i)) != v {
				t.Fatalf("extension %d: Value(%d) = %q, flat copy %q", step, i, got.Value(uint32(i)), v)
			}
			if id, ok := got.ID(v); !ok || id != uint32(i) {
				t.Fatalf("extension %d: ID(%q) = %d, %v; want %d", step, v, id, ok, i)
			}
		}
		for _, v := range probe {
			gid, gok := got.ID(v)
			wid, wok := want.ID(v)
			if gid != wid || gok != wok {
				t.Fatalf("extension %d: ID(%q) = %d, %v; flat copy %d, %v", step, v, gid, gok, wid, wok)
			}
		}
		q := probe[:50]
		gs, gok := got.EncodeKnown(q)
		ws, wok := want.EncodeKnown(q)
		if gok != wok || !slices.Equal(gs, ws) {
			t.Fatalf("extension %d: EncodeKnown differs from the flat copy", step)
		}
		known := make([]string, 0, 40)
		for i := 0; i < 40; i++ {
			known = append(known, want.Value(uint32(rng.Intn(want.Size()))))
		}
		gs, gok = got.EncodeKnown(known)
		ws, wok = want.EncodeKnown(known)
		if !gok || !wok || !slices.Equal(gs, ws) {
			t.Fatalf("extension %d: EncodeKnown of interned values differs from the flat copy", step)
		}
		if g, w := got.Encoder().Encode(q), want.Encoder().Encode(q); !slices.Equal(g, w) {
			t.Fatalf("extension %d: Encoder differs from the flat copy", step)
		}
	}
	if fresh := Extend(nil, []string{"b", "a", "b"}); fresh.root != nil || fresh.Size() != 2 || fresh.Value(0) != "a" {
		t.Fatalf("Extend(nil) = %v over %d values, want a root of a, b", fresh.values, fresh.Size())
	}
}
