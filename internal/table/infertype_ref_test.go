package table

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refInferType is InferType as it was before it learned to skip
// strconv for cells that cannot be numbers: every non-empty cell goes
// through ParseInt and ParseFloat.
func refInferType(values []string) Type {
	var total, ints, floats, bools, dates int
	for _, v := range values {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		total++
		if isBool(v) {
			bools++
		}
		if _, err := strconv.ParseInt(v, 10, 64); err == nil {
			ints++
			floats++
		} else if _, err := strconv.ParseFloat(v, 64); err == nil {
			floats++
		}
		if isDate(v) {
			dates++
		}
	}
	if total == 0 {
		return TypeUnknown
	}
	threshold := int(float64(total)*0.9 + 0.5)
	if threshold == 0 {
		threshold = 1
	}
	switch {
	case bools >= threshold:
		return TypeBool
	case ints >= threshold:
		return TypeInt
	case floats >= threshold:
		return TypeFloat
	case dates >= threshold:
		return TypeDate
	default:
		return TypeString
	}
}

// numberish are cells at the edge of what strconv accepts; text are
// cells it rejects.
var (
	numberish = []string{
		"0", "7", "-12", "+3", "1e5", "1E-3", ".5", "+.5", "5.", "0x1p-2", "0X1P+4", "0x10",
		"1_000", "1__0", "٣", "٣٤", "１２", "9223372036854775808", "1e999",
		"inf", "Inf", "INF", "+inf", "-inf", "infinity", "-Infinity", "+INFINITY", "infinit", "infinityy", "in", "i",
		"nan", "NaN", "NAN", "+nan", "-nan", "nano", "n", "na", "-", "+", "--1", "+-1",
		" 42 ", "\t-7\n", " inf ", " nan", "1 2",
	}
	text = []string{
		"boston", "New York", "india", "Nancy", "none", "null", "N/A", "true", "no", "t", "yes",
		"x", "-x", "+y", "city_0385", "v2", "a1b2", "_1", "e5", "x0x1p-2", "é", "日本", "", " ", "\t", "e", ".", "-.", "p", "0x", "2024-01-31", "2024/13/01",
	}
)

func TestInferTypeMatchesReference(t *testing.T) {
	// Every cell alone decides its one-cell column, so each spelling is
	// checked by itself.
	for _, v := range append(append([]string(nil), numberish...), text...) {
		if got, want := InferType([]string{v}), refInferType([]string{v}); got != want {
			t.Errorf("InferType([%q]) = %v, reference %v", v, got, want)
		}
	}
	// Mixed columns around the 90% threshold.
	rng := rand.New(rand.NewSource(16))
	pools := [][]string{numberish, text, {"1", "2", "3", "40"}, {"1.5", "2", "inf", "nan"}, {"true", "f", "no"}, {"2020-01-02", "1999/12/31"}}
	for i := 0; i < 2000; i++ {
		major, minor := pools[rng.Intn(len(pools))], pools[rng.Intn(len(pools))]
		n := 1 + rng.Intn(24)
		col := make([]string, n)
		for j := range col {
			pool := major
			if rng.Intn(10) == 0 {
				pool = minor
			}
			col[j] = pool[rng.Intn(len(pool))]
		}
		if got, want := InferType(col), refInferType(col); got != want {
			t.Fatalf("InferType(%q) = %v, reference %v", col, got, want)
		}
	}
}

// A text cell costs no allocation: strconv is not asked.
func TestInferTypeTextAllocations(t *testing.T) {
	col := []string{"boston", "new york", "são paulo", "none", "city_0385", "x-ray 7", "-dash", "inch"}
	if n := testing.AllocsPerRun(100, func() { InferType(col) }); n != 0 {
		t.Errorf("InferType over text cells allocates %.0f times, want 0", n)
	}
}

var sinkType Type

func BenchmarkInferType(b *testing.B) {
	cols := map[string][]string{"text": nil, "int": nil, "float": nil}
	for i := 0; i < 30; i++ {
		cols["text"] = append(cols["text"], fmt.Sprintf("city_%04d", i*13))
		cols["int"] = append(cols["int"], strconv.Itoa(i*37))
		cols["float"] = append(cols["float"], strconv.FormatFloat(float64(i)*1.25, 'f', 2, 64))
	}
	for _, name := range []string{"text", "int", "float"} {
		col := cols[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkType = InferType(col)
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkType = refInferType(col)
			}
		})
	}
}
