package union

import (
	"math"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
)

// refHypergeomCDF is P[X <= k] for X ~ Hypergeom(d, na, nb) as the
// plain full sum: every term x = lo..k added in order, over lf's ln n!
// (math.Lgamma alone when lf is nil). logFactTable.hypergeomCDF stops
// once no term can change its sum and must equal this bit for bit.
func refHypergeomCDF(lf logFactTable, k, d, na, nb int) float64 {
	lo := max(na+nb-d, 0)
	hi := min(na, nb)
	if k >= hi {
		return 1
	}
	denom := lf.logChoose(d, nb)
	var cdf float64
	for x := lo; x <= k; x++ {
		cdf += math.Exp(lf.logChoose(na, x) + lf.logChoose(d-na, nb-x) - denom)
	}
	return min(cdf, 1)
}

// refSetUnionability is TUS.setUnionability over the full sum: the
// set measure the oracles score with. It reads the engine's ln n!
// cache, which TestLogFactTableMatchesLgamma pins to math.Lgamma.
func refSetUnionability(t *TUS, a, b *tusColumn, overlap int) float64 {
	if overlap == 0 {
		return 0
	}
	na, nb := len(a.ids), len(b.ids)
	d := max(t.univ, na+nb)
	return refHypergeomCDF(t.lfact, overlap-1, d, na, nb)
}

// checkCDFStop fails t unless lf.hypergeomCDF equals the full sum bit
// for bit at every k of the support below its maximum (at and past it
// both return 1), and returns how many k it compared.
func checkCDFStop(t *testing.T, lf logFactTable, d, na, nb int) int {
	t.Helper()
	lo, hi := max(na+nb-d, 0), min(na, nb)
	for k := lo; k < hi; k++ {
		got, want := lf.hypergeomCDF(k, d, na, nb), refHypergeomCDF(lf, k, d, na, nb)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("CDF(k=%d; d=%d, na=%d, nb=%d) = %v, full sum %v", k, d, na, nb, got, want)
		}
	}
	return max(hi-lo, 0)
}

// TestHypergeomCDFStopsBitIdentical: the early-exit CDF equals the full
// sum bit for bit, for every k, over universes from 20 to 100 000
// values (24 815 is the 300-table serving lake's) and a strided grid
// of column sizes up to 120, each also at the smallest universe the
// set measure allows (d = na + nb); at large columns whose first terms
// underflow to 0, where a stop before the mode would end a sum of
// zeros; then for every cell with a positive overlap that scoring any
// table of that lake against any other computes. A margin of 2⁻⁵³ in
// place of 2⁻⁶⁰, or the stop taken before the mode, fails it.
func TestHypergeomCDFStopsBitIdentical(t *testing.T) {
	lf := newLogFactTable(100_001)
	compared := 0
	for na := 1; na <= 120; na += 9 {
		for nb := 1; nb <= 120; nb += 7 {
			compared += checkCDFStop(t, lf, na+nb, na, nb)
			for _, d := range []int{20, 50, 200, 1000, 24815, 100_000} {
				if na+nb <= d {
					compared += checkCDFStop(t, lf, d, na, nb)
				}
			}
		}
	}
	for _, c := range [][3]int{{2000, 1000, 1000}, {1500, 700, 800}} {
		if lf.hypergeomCDF(0, c[0], c[1], c[2]) != 0 {
			t.Fatalf("CDF(0; %v) is positive: the case no longer starts with terms that underflow", c)
		}
		compared += checkCDFStop(t, lf, c[0], c[1], c[2])
	}

	lake := datagen.Generate(datagen.Config{Seed: 1, NumDomains: 20, DomainSize: 80, NumTemplates: 10, TablesPerTemplate: 30})
	model := embedding.Train(lake.ColumnContexts(), embedding.Config{Dim: 8, Seed: 3})
	b, err := NewTUSBuilder(TUSConfig{Model: model, Dict: valueDict(lake.Tables)})
	if err != nil {
		t.Fatal(err)
	}
	b.AddTables(lake.Tables, 0)
	// The set measure reads only the encoded columns, the universe and
	// the ln n! cache: the part of an assembly that makes them, without
	// the LSH bands and the NL graph.
	d, parts := b.Parts()
	tus := &TUS{tusAnalyzer: b.tusAnalyzer, dict: d}
	if err := tus.adopt(parts, tablesByID(lake.Tables)); err != nil {
		t.Fatal(err)
	}
	tus.freezeUniverse()
	// Overlaps come from the scoring kernel, one query table at a time;
	// cells with the same (overlap, sizes) ask the same question, so it
	// is asked once.
	cells := 0
	asked := make(map[[3]int]bool)
	for _, qid := range tus.ids {
		qcols := tus.tables[qid].cols
		marks := newQueryMarks(tus.dict.Size())
		inter := make([]int32, len(qcols))
		for i, qc := range qcols {
			marks.add(i, qc.ids, nil)
		}
		for _, cid := range tus.ids {
			if cid == qid {
				continue
			}
			for _, cc := range tus.tables[cid].cols {
				marks.overlaps(cc.ids, inter)
				for i, qc := range qcols {
					overlap := int(inter[i])
					if overlap == 0 {
						continue
					}
					cells++
					if q := [3]int{overlap, len(qc.ids), len(cc.ids)}; asked[q] {
						continue
					} else {
						asked[q] = true
					}
					got, want := tus.setUnionability(qc, cc, overlap), refSetUnionability(tus, qc, cc, overlap)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s.%s against %s.%s (overlap %d of %d, %d; d=%d): %v, full sum %v",
							qid, qc.name, cid, cc.name, overlap, len(qc.ids), len(cc.ids), tus.univ, got, want)
					}
				}
			}
		}
		marks.release()
	}
	if compared < 40_000 || len(asked) < 1_000 {
		t.Fatalf("compared %d grid points and %d distinct lake cells, too few to pin the stop", compared, len(asked))
	}
	t.Logf("%d grid points and %d lake cells (%d distinct) match the full sum", compared, cells, len(asked))
}
