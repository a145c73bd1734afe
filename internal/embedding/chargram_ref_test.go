package embedding

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tablehound/internal/tokenize"
)

// The kernel CharGramVector and RandomVector replaced, kept as the
// oracle: one []string of q-grams, one fnv hasher per hash and one
// Vector per gram. The rewritten kernel must agree float for float.

func refHashToken(tok string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tok))
	x := h.Sum64() ^ (seed * 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func refRandomVector(tok string, dim int, seed uint64) Vector {
	v := make(Vector, dim)
	x := refHashToken(tok, seed)
	for i := 0; i < dim; i++ {
		if i%64 == 0 && i > 0 {
			x = refHashToken(tok, seed+uint64(i))
		}
		if x&(1<<(uint(i)%64)) != 0 {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
	return v
}

func refCharGramVector(s string, dim, q int, seed uint64) Vector {
	out := Zero(dim)
	for _, g := range tokenize.QGrams(tokenize.Normalize(s), q) {
		out.Add(refRandomVector(g, dim, seed))
	}
	return out.Normalize()
}

// sameBits reports whether a and b hold the same float32 bit patterns
// (so a +0 and a -0, or two NaNs of different payload, differ).
func sameBits(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

var kernelDims = []int{1, 16, 63, 64, 65, 100, 128, 200}

func checkCharGram(t *testing.T, s string) {
	t.Helper()
	for _, dim := range kernelDims {
		for q := 0; q <= 4; q++ {
			for _, seed := range []uint64{0, 7, math.MaxUint64} {
				if got, want := CharGramVector(s, dim, q, seed), refCharGramVector(s, dim, q, seed); !sameBits(got, want) {
					t.Fatalf("CharGramVector(%q, dim %d, q %d, seed %d) differs from the reference:\n got %v\nwant %v", s, dim, q, seed, got, want)
				}
			}
		}
	}
}

func TestCharGramVectorMatchesReference(t *testing.T) {
	cases := []string{
		"", " ", "a", "ab", "abc", "#", "$", "#$", "mississippi",
		"  Mixed   CASE\tand\nspace  ", "new york", "12345", "a-b_c.d",
		"é", "héllo wörld", "日本語", "日本語のテキスト", "🙂", "a🙂b", "Ünïcödé Straße",
		"\xff", "a\xffb", "\xe6\x97", "ok\xc3", "\xf0\x9f\x99", "\uFFFD",
		strings.Repeat("x", 129), strings.Repeat("ab", 128),
		strings.Repeat("日本", 70),
		// More grams than one bit-sliced pass counts, with and without a
		// remainder, and enough of one gram to carry through every plane.
		strings.Repeat("a", gramChunk-2), strings.Repeat("a", gramChunk-1),
		strings.Repeat("a", gramChunk), strings.Repeat("a", 2*gramChunk+1),
		strings.Repeat("abcdefg", 300),
	}
	for _, s := range cases {
		checkCharGram(t, s)
	}
	if err := quick.Check(func(s string) bool { checkCharGram(t, s); return true }, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// quick draws mostly exotic runes; bytes drawn from a small alphabet
	// repeat grams and mix in whitespace, case and invalid UTF-8.
	if err := quick.Check(func(raw []byte) bool {
		const alphabet = "ab Z\t9#$\xc3\xa9\xff"
		b := make([]byte, len(raw))
		for i, c := range raw {
			b[i] = alphabet[int(c)%len(alphabet)]
		}
		checkCharGram(t, string(b))
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomVectorMatchesReference(t *testing.T) {
	f := func(tok string, seed uint64) bool {
		for _, dim := range kernelDims {
			if !sameBits(RandomVector(tok, dim, seed), refRandomVector(tok, dim, seed)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !f("", 0) || !f("token", 42) {
		t.Error("RandomVector differs from the reference")
	}
}

// Embedding an out-of-vocabulary cell allocates its result and nothing
// else (a value Normalize has to rewrite costs that copy too).
func TestCharGramVectorAllocations(t *testing.T) {
	for _, s := range []string{"neverseen-value-17", "日本語のテキスト", strings.Repeat("long", 200)} {
		if n := testing.AllocsPerRun(100, func() { CharGramVector(s, 64, 3, 5) }); n > 1 {
			t.Errorf("CharGramVector(%.20q) allocates %.0f times, want <= 1", s, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { RandomVector("token", 128, 5) }); n > 1 {
		t.Errorf("RandomVector allocates %.0f times, want <= 1", n)
	}
}

var sinkVec Vector

func BenchmarkCharGramVector(b *testing.B) {
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkVec = CharGramVector("neverseen-value-17", 64, 3, 5)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkVec = refCharGramVector("neverseen-value-17", 64, 3, 5)
		}
	})
}
