package union

import (
	"testing"
	"testing/quick"
)

// TestHypergeomCDFBounds: the CDF is a probability for arbitrary
// valid parameterizations.
func TestHypergeomCDFBounds(t *testing.T) {
	type spec struct {
		D, Na, Nb, K uint8
	}
	f := func(s spec) bool {
		d := int(s.D%200) + 2
		na := int(s.Na)%d + 1
		nb := int(s.Nb)%d + 1
		k := int(s.K) % (na + 1)
		v := refHypergeomCDF(nil, k, d, na, nb)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHypergeomCDFSumsToOne: the PMF implied by CDF differences sums
// to 1 over the support.
func TestHypergeomCDFSumsToOne(t *testing.T) {
	for _, c := range []struct{ d, na, nb int }{
		{50, 10, 10}, {100, 3, 80}, {20, 20, 5},
	} {
		hi := c.na
		if c.nb < hi {
			hi = c.nb
		}
		if v := refHypergeomCDF(nil, hi, c.d, c.na, c.nb); v < 0.999999 {
			t.Errorf("CDF at max overlap = %v for %+v", v, c)
		}
	}
}

// TestColumnScoreSymmetry: every measure is symmetric in its
// arguments, which the bipartite aggregation assumes.
func TestColumnScoreSymmetry(t *testing.T) {
	_, tus := lakeAndTUS(t, true, true)
	vals1 := []string{"alpha", "beta", "gamma", "delta"}
	vals2 := []string{"beta", "gamma", "epsilon"}
	for _, m := range []Measure{SetMeasure, SemMeasure, NLMeasure, EnsembleMeasure} {
		a := tus.ColumnUnionability(vals1, vals2, m)
		b := tus.ColumnUnionability(vals2, vals1, m)
		if diff := a - b; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%v not symmetric: %v vs %v", m, a, b)
		}
	}
}

// TestScoresInUnitInterval across random value sets.
func TestScoresInUnitInterval(t *testing.T) {
	_, tus := lakeAndTUS(t, true, true)
	f := func(a, b []string) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		for _, m := range []Measure{SetMeasure, SemMeasure, NLMeasure, EnsembleMeasure} {
			s := tus.ColumnUnionability(a, b, m)
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
