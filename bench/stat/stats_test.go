package stat

import (
	"math"
	"testing"
)

func TestOrderStatistics(t *testing.T) {
	odd := []float64{5, 1, 4, 2, 3}
	even := []float64{4, 1, 3, 2}
	if got := Median(odd); got != 3 {
		t.Errorf("Median(odd) = %v, want 3", got)
	}
	if got := Median(even); got != 2.5 {
		t.Errorf("Median(even) = %v, want 2.5", got)
	}
	if odd[0] != 5 {
		t.Error("Median sorted its argument in place")
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(Percentile(nil, 90)) {
		t.Error("empty input must give NaN")
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := Percentile(ten, c.p); got != c.want {
			t.Errorf("Percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := Quartiles(ten); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := Quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("Quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	// statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
	if q1, q2, q3 := Quartiles([]float64{3, 9}); q1 != 1.5 || q2 != 6 || q3 != 10.5 {
		t.Errorf("Quartiles(3,9) = %v %v %v, want 1.5 6 10.5", q1, q2, q3)
	}
}
