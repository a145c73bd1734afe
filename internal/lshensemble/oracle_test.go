package lshensemble

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"tablehound/internal/minhash"
)

// scanQuery is Query from first principles, with no index at all:
// domains sorted by (size, key) and cut into equi-depth partitions; per
// partition that can hold a container, the (b, r) the bootstrap picks;
// then band by band, every domain of the partition (in sorted order)
// whose r hashes of that band equal the query's, each domain once.
// Comparing the hashes themselves stands in for comparing their 64-bit
// bucket hash.
func scanQuery(domains []Domain, numHashes, numPart int, sig minhash.Signature, querySize int, threshold float64) []string {
	sorted := slices.Clone(domains)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Size != sorted[j].Size {
			return sorted[i].Size < sorted[j].Size
		}
		return sorted[i].Key < sorted[j].Key
	})
	n, p := len(sorted), numPart
	if p > n {
		p = n
	}
	var out []string
	for i := 0; i < p; i++ {
		chunk := sorted[i*n/p : (i+1)*n/p]
		if len(chunk) == 0 {
			continue
		}
		upper := chunk[len(chunk)-1].Size
		if float64(upper) < threshold*float64(querySize) {
			continue
		}
		b, r := optimalBootstrap(jaccardThreshold(threshold, querySize, upper), numHashes)
		emitted := make(map[string]bool)
		for band := 0; band < b; band++ {
			for _, d := range chunk {
				if !emitted[d.Key] && slices.Equal(d.Sig[band*r:(band+1)*r], sig[band*r:(band+1)*r]) {
					emitted[d.Key] = true
					out = append(out, d.Key)
				}
			}
		}
	}
	return out
}

// TestQueryMatchesScan compares Query with scanQuery — the same keys in
// the same order — over lakes with near-duplicate and duplicated
// domains, thresholds from permissive to strict, and query sizes below,
// inside and above every partition; domains are added in shuffled order
// so ordinals say nothing about size order.
func TestQueryMatchesScan(t *testing.T) {
	h := minhash.NewHasher(numHashes, 42)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numPart := []int{1, 3, 8, 16}[seed%4]
		n := 20 + rng.Intn(150)
		var domains []Domain
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("dom%03d", i)
			switch {
			case i > 0 && rng.Intn(5) == 0: // a copy of an earlier domain
				src := domains[rng.Intn(i)]
				domains = append(domains, Domain{Key: key, Size: src.Size, Sig: src.Sig})
			default: // a prefix of one of three shared pools: heavy mutual containment
				size := 1 + int(200*rng.ExpFloat64()/3)
				vals := genSet(fmt.Sprintf("pool%d", rng.Intn(3)), size)
				domains = append(domains, Domain{Key: key, Size: size, Sig: h.Sign(vals)})
			}
		}
		rng.Shuffle(n, func(i, j int) { domains[i], domains[j] = domains[j], domains[i] })
		ix := New(numHashes, numPart)
		for _, d := range domains {
			if err := ix.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Build(); err != nil {
			t.Fatal(err)
		}
		sizes := []int{1, 1000}
		for _, b := range ix.PartitionBounds() {
			sizes = append(sizes, (b[0]+b[1]+1)/2)
		}
		for _, querySize := range sizes {
			sig := h.Sign(genSet(fmt.Sprintf("pool%d", rng.Intn(3)), querySize))
			for _, threshold := range []float64{0.1, 0.5, 0.9} {
				got, err := queryKeys(ix, sig, querySize, threshold)
				if err != nil {
					t.Fatal(err)
				}
				want := scanQuery(domains, numHashes, numPart, sig, querySize, threshold)
				if len(got) == 0 {
					got = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d parts=%d |q|=%d t=%.1f:\n got %v\nwant %v",
						seed, numPart, querySize, threshold, got, want)
				}
			}
		}
	}
}

// TestConcurrentQueries shares one ensemble among 8 goroutines: the
// pooled scratch must hand every query its own dedupe set and buffer
// (run with -race).
func TestConcurrentQueries(t *testing.T) {
	h := minhash.NewHasher(numHashes, 42)
	ix := New(numHashes, 4)
	for i := 0; i < 200; i++ {
		size := 5 + i%60
		if err := ix.Add(Domain{Key: fmt.Sprintf("dom%03d", i), Size: size, Sig: h.Sign(genSet(fmt.Sprintf("pool%d", i%3), size))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	sigs := make([]minhash.Signature, 30)
	want := make([][]int32, len(sigs))
	for i := range sigs {
		sigs[i] = h.Sign(genSet(fmt.Sprintf("pool%d", i%3), 10+i))
		want[i], _ = ix.Query(sigs[i], 10+i, 0.5)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i, sig := range sigs {
					if got, err := ix.Query(sig, 10+i, 0.5); err != nil || !slices.Equal(got, want[i]) {
						t.Errorf("query %d: got %v (%v), want %v", i, got, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryAllocations pins a query to the one allocation its answer
// needs: dedupe set and gathering buffer live in pooled scratch.
func TestQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	h := minhash.NewHasher(numHashes, 42)
	ix := New(numHashes, 8)
	for i := 0; i < 400; i++ {
		size := 5 + i%90
		vals := genSet(fmt.Sprintf("pool%d", i%3), size)
		if err := ix.Add(Domain{Key: fmt.Sprintf("dom%03d", i), Size: size, Sig: h.Sign(vals)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	sig := h.Sign(genSet("pool1", 40))
	if got, _ := ix.Query(sig, 40, 0.5); len(got) < 10 { // also warms the pool
		t.Fatalf("only %d candidates: the query does not exercise the buffers", len(got))
	}
	if allocs := testing.AllocsPerRun(50, func() { ix.Query(sig, 40, 0.5) }); allocs > 1 {
		t.Errorf("Query allocates %.0f times per call, want 1", allocs)
	}
}

// TestBootstrapIsAPureFunctionOfTheKey asks for every 1e-3 bucket from
// its top end, then from its bottom end, at a signature length with no
// precomputed table: both must get what the bucket's representative
// threshold computes, so the (bands, rows) a query probes with depends
// on its bucket alone.
func TestBootstrapIsAPureFunctionOfTheKey(t *testing.T) {
	const nh = 32
	for q := 0; q <= 1000; q++ {
		want := [2]int{}
		want[0], want[1] = bootstrapParams(max(float64(q)/1000, minJaccard), nh)
		top := min((float64(q)+0.49)/1000, 1)
		bottom := max((float64(q)-0.49)/1000, minJaccard)
		for _, j := range []float64{top, bottom} {
			if b, r := optimalBootstrap(j, nh); [2]int{b, r} != want {
				t.Fatalf("key %d, j=%v: (b, r) = (%d, %d), want %v", q, j, b, r, want)
			}
		}
	}
}
