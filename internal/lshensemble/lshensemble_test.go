package lshensemble

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tablehound/internal/minhash"
)

const numHashes = 128

func genSet(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

// skewedLake builds domains with Zipf-like sizes; domain i of size s
// has values "u-i-*" except planted containers of the query.
func skewedLake(t *testing.T, ix *Index, h *minhash.Hasher, rng *rand.Rand, n int, query []string, containers map[string]float64) map[string][]string {
	t.Helper()
	lake := make(map[string][]string)
	for i := 0; i < n; i++ {
		size := 10 + int(1000*rng.ExpFloat64()/4)
		key := fmt.Sprintf("dom%d", i)
		vals := genSet(fmt.Sprintf("u-%d", i), size)
		lake[key] = vals
	}
	// Iterate planted containers in sorted order: map-order iteration
	// would consume rng values nondeterministically across runs.
	ckeys := make([]string, 0, len(containers))
	for key := range containers {
		ckeys = append(ckeys, key)
	}
	sort.Strings(ckeys)
	for _, key := range ckeys {
		frac := containers[key]
		size := 50 + rng.Intn(400)
		nShared := int(frac * float64(len(query)))
		vals := append([]string{}, query[:nShared]...)
		vals = append(vals, genSet("filler-"+key, size)...)
		lake[key] = vals
	}
	lkeys := make([]string, 0, len(lake))
	for key := range lake {
		lkeys = append(lkeys, key)
	}
	sort.Strings(lkeys)
	for _, key := range lkeys {
		vals := lake[key]
		if err := ix.Add(Domain{Key: key, Size: len(vals), Sig: h.Sign(vals)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	return lake
}

// queryKeys is Query with the ordinals turned back into domain keys.
func queryKeys(ix *Index, sig minhash.Signature, querySize int, threshold float64) ([]string, error) {
	ords, err := ix.Query(sig, querySize, threshold)
	keys := make([]string, len(ords))
	for i, o := range ords {
		keys[i] = ix.Key(o)
	}
	return keys, err
}

func TestQueryFindsHighContainmentDomains(t *testing.T) {
	h := minhash.NewHasher(numHashes, 42)
	rng := rand.New(rand.NewSource(1))
	ix := New(numHashes, 8)
	query := genSet("q", 100)
	containers := map[string]float64{"hit1": 0.95, "hit2": 0.8, "miss": 0.1}
	skewedLake(t, ix, h, rng, 200, query, containers)

	got, err := queryKeys(ix, h.Sign(query), 100, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, k := range got {
		found[k] = true
	}
	if !found["hit1"] || !found["hit2"] {
		t.Errorf("missed planted containers, got %d candidates: hit1=%v hit2=%v", len(got), found["hit1"], found["hit2"])
	}
}

func TestLowContainmentMostlyExcluded(t *testing.T) {
	h := minhash.NewHasher(numHashes, 42)
	rng := rand.New(rand.NewSource(2))
	ix := New(numHashes, 8)
	query := genSet("q", 100)
	skewedLake(t, ix, h, rng, 300, query, map[string]float64{"hit": 0.9})

	got, err := queryKeys(ix, h.Sign(query), 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// The 300 random domains are disjoint from the query; candidate
	// list should be a small fraction of the lake.
	if len(got) > 100 {
		t.Errorf("too many false candidates: %d of 301", len(got))
	}
}

func TestPartitionBoundsAreSorted(t *testing.T) {
	h := minhash.NewHasher(numHashes, 3)
	ix := New(numHashes, 4)
	for i := 1; i <= 40; i++ {
		vals := genSet(fmt.Sprintf("d%d", i), i*5)
		if err := ix.Add(Domain{Key: fmt.Sprintf("d%d", i), Size: i * 5, Sig: h.Sign(vals)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	bounds := ix.PartitionBounds()
	if len(bounds) != 4 {
		t.Fatalf("partitions = %d, want 4", len(bounds))
	}
	for i, b := range bounds {
		if b[0] > b[1] {
			t.Errorf("partition %d: lower %d > upper %d", i, b[0], b[1])
		}
		if i > 0 && bounds[i-1][1] > b[0] {
			t.Errorf("partition %d overlaps previous", i)
		}
	}
	if ix.Key(9) != "d10" {
		t.Errorf("Key(9) = %q, want the tenth domain added", ix.Key(9))
	}
}

func TestJaccardThresholdFormula(t *testing.T) {
	// Containment 1.0 of a query equal in size to the partition upper
	// bound implies Jaccard >= |Q|/(|Q|+u-|Q|) = |Q|/u.
	j := jaccardThreshold(1.0, 100, 100)
	if j < 0.99 {
		t.Errorf("j = %v, want ~1", j)
	}
	// Larger upper bound loosens the Jaccard bound.
	j1 := jaccardThreshold(0.8, 100, 200)
	j2 := jaccardThreshold(0.8, 100, 2000)
	if j2 >= j1 {
		t.Errorf("bound should loosen with upper: %v -> %v", j1, j2)
	}
}

func TestAPIErrors(t *testing.T) {
	ix := New(numHashes, 2)
	if _, err := ix.Query(make(minhash.Signature, numHashes), 10, 0.5); err == nil {
		t.Error("Query before Build should fail")
	}
	if err := ix.Add(Domain{Key: "x", Size: 0, Sig: make(minhash.Signature, numHashes)}); err == nil {
		t.Error("zero-size domain should fail")
	}
	if err := ix.Add(Domain{Key: "x", Size: 5, Sig: make(minhash.Signature, 4)}); err == nil {
		t.Error("short signature should fail")
	}
	if err := ix.Build(); err == nil {
		t.Error("Build with no domains should fail")
	}
	ix2 := New(numHashes, 2)
	h := minhash.NewHasher(numHashes, 1)
	ix2.Add(Domain{Key: "a", Size: 3, Sig: h.Sign(genSet("a", 3))})
	if err := ix2.Build(); err != nil {
		t.Fatal(err)
	}
	if err := ix2.Build(); err == nil {
		t.Error("double Build should fail")
	}
	if err := ix2.Add(Domain{Key: "b", Size: 3, Sig: h.Sign(genSet("b", 3))}); err == nil {
		t.Error("Add after Build should fail")
	}
	if _, err := ix2.Query(h.Sign(genSet("a", 3)), 0, 0.5); err == nil {
		t.Error("querySize 0 should fail")
	}
	if _, err := ix2.Query(h.Sign(genSet("a", 3)), 3, 1.5); err == nil {
		t.Error("threshold > 1 should fail")
	}
}

func TestMorePartitionsImprovePrecision(t *testing.T) {
	// The headline LSH Ensemble property: with skewed cardinalities, a
	// partitioned index produces fewer false candidates than a single
	// partition, without losing the true containers.
	query := genSet("q", 100)
	build := func(parts int) *Index {
		h := minhash.NewHasher(numHashes, 42)
		rng := rand.New(rand.NewSource(7))
		ix := New(numHashes, parts)
		skewedLake(t, ix, h, rng, 400, query, map[string]float64{"hit": 0.9})
		return ix
	}
	h := minhash.NewHasher(numHashes, 42)
	sig := h.Sign(query)

	c1, err := queryKeys(build(1), sig, 100, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	c16, err := queryKeys(build(16), sig, 100, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	in := func(cs []string, k string) bool {
		for _, c := range cs {
			if c == k {
				return true
			}
		}
		return false
	}
	if !in(c16, "hit") {
		t.Fatal("16-partition index lost the true container")
	}
	if len(c16) > len(c1)+5 {
		t.Errorf("partitioning should not blow up candidates: 1 part=%d, 16 parts=%d", len(c1), len(c16))
	}
}
