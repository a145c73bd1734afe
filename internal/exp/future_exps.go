package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tablehound/internal/annotate"
	"tablehound/internal/datagen"
	"tablehound/internal/learned"
	"tablehound/internal/table"
)

// E19Learned explores the tutorial's Section 3 question — "whether
// learned indices can be effective beyond single-table data
// structures" — on a data-lake dictionary workload: point lookups in
// the sorted hashed-token universe an inverted index keeps. The
// piecewise-linear learned index answers in O(log segments + log eps)
// comparisons versus O(log n) for binary search; on the near-uniform
// hash key distribution the model needs very few segments.
func E19Learned() Report {
	rep := Report{
		ID:     "E19",
		Title:  "Learned index over data-lake token dictionaries (Section 3)",
		Header: []string{"keys", "epsilon", "segments", "learned_ns", "binary_ns", "learned_max_cmp", "binary_max_cmp"},
		Notes:  "segment count stays tiny on hash-distributed keys; no learned lookup needs more comparisons than binary search's ⌈log₂ n⌉ (the *_max_cmp columns: the most any probe made), and lookup time does not grow with n the way binary search's does",
	}
	rng := rand.New(rand.NewSource(1919))
	for _, n := range []int{100000, 1000000} {
		keys := make([]uint64, 0, n)
		seen := make(map[uint64]bool, n)
		for len(keys) < n {
			k := rng.Uint64() >> 1
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, eps := range []int{16, 64, 256} {
			ix, err := learned.New(keys, eps)
			if err != nil {
				panic(err)
			}
			probes := make([]uint64, 4096)
			for i := range probes {
				probes[i] = keys[rng.Intn(len(keys))]
			}
			tLearned := timeIt(func() {
				for _, k := range probes {
					if _, ok := ix.Lookup(k); !ok {
						panic("lost key")
					}
				}
			})
			tBinary := timeIt(func() {
				for _, k := range probes {
					if _, ok := ix.BinaryLookup(k); !ok {
						panic("lost key")
					}
				}
			})
			maxLearned, maxBinary := 0, 0
			for _, k := range probes {
				maxLearned = max(maxLearned, ix.Comparisons(k))
				maxBinary = max(maxBinary, ix.BinaryComparisons(k))
			}
			rep.Rows = append(rep.Rows, []string{
				d(n), d(eps), d(ix.NumSegments()),
				fmt.Sprintf("%.0f", float64(tLearned.Nanoseconds())/float64(len(probes))),
				fmt.Sprintf("%.0f", float64(tBinary.Nanoseconds())/float64(len(probes))),
				d(maxLearned), d(maxBinary),
			})
		}
	}
	return rep
}

// E20QueryTimeAnnotation examines the tutorial's Section 3 question
// of moving semantic annotation from offline batch pipelines to query
// time: batch annotation pays for the whole lake before the first
// query; query-time annotation (with a cache) pays only for tables a
// query touches. The crossover arrives when enough distinct tables
// have been queried — the trade-off a discovery system must navigate.
func E20QueryTimeAnnotation() Report {
	lake := datagen.Generate(datagen.Config{
		Seed:              2020,
		NumDomains:        16,
		DomainSize:        120,
		NumTemplates:      15,
		TablesPerTemplate: 8,
		NoiseCols:         -1,
		NumericCols:       -1,
	})
	// Train the annotator on a held-out slice of the lake.
	var train []annotate.Example
	for _, tbl := range lake.Tables[:30] {
		for _, c := range tbl.Columns {
			if dd, ok := lake.ColumnDomain[table.ColumnKey(tbl.ID, c.Name)]; ok {
				train = append(train, annotate.Example{Values: c.Values, Header: c.Name, Label: lake.DomainNames[dd]})
			}
		}
	}
	a, err := annotate.Train(train, annotate.Config{Epochs: 10, Seed: 1})
	if err != nil {
		panic(err)
	}
	corpus := lake.Tables[30:]
	annotateOne := func(t *table.Table) {
		a.AnnotateTable(t, true)
	}
	// Offline: annotate everything up front.
	offline := timeIt(func() {
		for _, t := range corpus {
			annotateOne(t)
		}
	})
	// Query-time: each query touches 5 tables; cache hits are free.
	rng := rand.New(rand.NewSource(3))
	cached := make(map[string]bool)
	var online time.Duration
	rep := Report{
		ID:     "E20",
		Title:  fmt.Sprintf("Query-time vs batch annotation (%d tables; batch cost %.0f ms)", len(corpus), float64(offline.Milliseconds())),
		Header: []string{"queries", "online_ms", "batch_ms", "tables_annotated"},
		Notes:  "query-time annotation stays below the batch cost until most of the lake has been touched; batch pays everything before the first query",
	}
	checkpoints := map[int]bool{1: true, 5: true, 10: true, 25: true, 50: true}
	for q := 1; q <= 50; q++ {
		for i := 0; i < 5; i++ {
			t := corpus[rng.Intn(len(corpus))]
			if cached[t.ID] {
				continue
			}
			cached[t.ID] = true
			online += timeIt(func() { annotateOne(t) })
		}
		if checkpoints[q] {
			rep.Rows = append(rep.Rows, []string{
				d(q), ms(online), ms(offline), d(len(cached)),
			})
		}
	}
	return rep
}
