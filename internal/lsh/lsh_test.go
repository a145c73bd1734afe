package lsh

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tablehound/internal/minhash"
)

func genSet(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

func TestCollisionProbabilityCurve(t *testing.T) {
	// S-curve must be monotone in j and hit the endpoints.
	if p := CollisionProbability(0, 16, 8); p != 0 {
		t.Errorf("P(0) = %v", p)
	}
	if p := CollisionProbability(1, 16, 8); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(1) = %v", p)
	}
	prev := -1.0
	for j := 0.0; j <= 1.0; j += 0.05 {
		p := CollisionProbability(j, 16, 8)
		if p < prev {
			t.Fatalf("S-curve not monotone at j=%v", j)
		}
		prev = p
	}
}

func TestOptimalParamsRespectsBudget(t *testing.T) {
	for _, th := range []float64{0.2, 0.5, 0.8} {
		b, r := OptimalParams(th, 128, 0.5, 0.5)
		if b*r > 128 {
			t.Errorf("threshold %v: b*r = %d exceeds budget", th, b*r)
		}
		// Higher thresholds need more rows per band (steeper curve).
		if th == 0.8 && r < 2 {
			t.Errorf("threshold 0.8 chose r=%d, want steeper", r)
		}
	}
}

func TestOptimalParamsThresholdMonotone(t *testing.T) {
	_, rLow := OptimalParams(0.2, 128, 0.5, 0.5)
	_, rHigh := OptimalParams(0.9, 128, 0.5, 0.5)
	if rHigh < rLow {
		t.Errorf("rows at t=0.9 (%d) < rows at t=0.2 (%d)", rHigh, rLow)
	}
}

// TestOptimalParamsMemoised: a repeated call answers from the memo with
// the first call's result, distinct arguments do not share an entry,
// and concurrent callers (stages of one build ask at the same time) are
// safe under the race detector.
func TestOptimalParamsMemoised(t *testing.T) {
	b0, r0 := OptimalParams(0.35, 64, 0.7, 0.3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b, r := OptimalParams(0.35, 64, 0.7, 0.3); b != b0 || r != r0 {
				t.Errorf("memoised call returned (%d, %d), first call (%d, %d)", b, r, b0, r0)
			}
		}()
	}
	wg.Wait()
	if b, r := OptimalParams(0.35, 64, 0.3, 0.7); b == b0 && r == r0 {
		t.Errorf("swapped weights returned the same (%d, %d): the memo key ignores them", b, r)
	}
}

func TestIndexFindsSimilarMissesDissimilar(t *testing.T) {
	h := minhash.NewHasher(128, 42)
	b, r := OptimalParams(0.7, 128, 0.5, 0.5)
	ix := New(b, r)

	base := genSet("v", 200)
	// near: ~90% Jaccard with base.
	near := append(genSet("v", 180), genSet("n", 20)...)
	far := genSet("far", 200)
	keys := []string{"near", "far"}
	if err := ix.Add(h.Sign(near)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(h.Sign(far)); err != nil {
		t.Fatal(err)
	}
	ix.Build()
	found := map[string]bool{}
	for _, o := range query(ix, h.Sign(base), b) {
		found[keys[o]] = true
	}
	if !found["near"] {
		t.Error("high-similarity key not retrieved")
	}
	if found["far"] {
		t.Error("disjoint key retrieved")
	}
	if ix.Len() != 2 {
		t.Errorf("Len = %d", ix.Len())
	}
}

// query runs one Query with a fresh Seen and buffer.
func query(ix *Index, sig minhash.Signature, bands int) []int32 {
	var seen Seen
	seen.Reset(ix.Len())
	return ix.Query(nil, sig, bands, &seen)
}

func TestQueryBandsSubset(t *testing.T) {
	h := minhash.NewHasher(64, 1)
	ix := New(16, 4)
	sig := h.Sign(genSet("a", 50))
	if err := ix.Add(sig); err != nil {
		t.Fatal(err)
	}
	if got := query(ix, sig, 16); got != nil {
		t.Errorf("query before Build returned %v", got)
	}
	ix.Build()
	// Probing a prefix of bands must return a subset of the full query.
	full := query(ix, sig, 16)
	sub := query(ix, sig, 4)
	if len(sub) > len(full) {
		t.Error("band-prefix query returned more than full query")
	}
	if len(full) != 1 {
		t.Errorf("self query returned %v", full)
	}
	if got := query(ix, sig, 0); got != nil {
		t.Errorf("0 bands should return nil, got %v", got)
	}
	if got := query(ix, sig, 100); len(got) != 1 {
		t.Errorf("excess bands should clamp, got %v", got)
	}
	if got := query(ix, sig[:8], 16); got != nil {
		t.Errorf("short signature should match nothing, got %v", got)
	}
}

func TestAddRejectsShortSignature(t *testing.T) {
	ix := New(4, 4)
	if err := ix.Add(make(minhash.Signature, 8)); err == nil {
		t.Error("want error for short signature")
	}
	ix.Build()
	if err := ix.Add(make(minhash.Signature, 16)); err == nil {
		t.Error("want error for Add after Build")
	}
}

func TestFalseProbabilitiesBehavior(t *testing.T) {
	// More bands at fixed rows => more false positives, fewer negatives.
	fp1, fn1 := FalseProbabilities(0.5, 4, 4)
	fp2, fn2 := FalseProbabilities(0.5, 32, 4)
	if fp2 < fp1 {
		t.Errorf("fp should grow with bands: %v -> %v", fp1, fp2)
	}
	if fn2 > fn1 {
		t.Errorf("fn should shrink with bands: %v -> %v", fn1, fn2)
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(0, 4)
}
