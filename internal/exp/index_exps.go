package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/invindex"
	"tablehound/internal/josie"
	"tablehound/internal/lshensemble"
	"tablehound/internal/minhash"
)

// E6HNSW reproduces the HNSW parameter study (Malkov & Yashunin,
// TPAMI 2020, Fig 3 shape): recall@10 rises with efSearch toward 1
// while latency grows, and stays far below brute-force scan time.
func E6HNSW() Report {
	const (
		n   = 15000
		dim = 48
	)
	rng := rand.New(rand.NewSource(606))
	randUnit := func() embedding.Vector {
		v := make(embedding.Vector, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v.Normalize()
	}
	// Clustered corpus: the regime HNSW's heuristic selection handles.
	centers := make([]embedding.Vector, 40)
	for i := range centers {
		centers[i] = randUnit()
	}
	g := hnsw.New(hnsw.Config{M: 16, EfConstruction: 100, Seed: 6})
	buildTime := timeIt(func() {
		for i := 0; i < n; i++ {
			v := centers[i%len(centers)].Clone()
			v.AddScaled(randUnit(), 0.35)
			if err := g.Add(fmt.Sprintf("v%05d", i), v.Normalize()); err != nil {
				panic(err)
			}
		}
	})
	queries := make([]embedding.Vector, 30)
	for i := range queries {
		v := centers[rng.Intn(len(centers))].Clone()
		v.AddScaled(randUnit(), 0.35)
		queries[i] = v.Normalize()
	}
	rep := Report{
		ID:     "E6",
		Title:  fmt.Sprintf("HNSW: recall@10 vs efSearch (n=%d, build %.1fs)", n, buildTime.Seconds()),
		Header: []string{"efSearch", "recall@10", "query_ms", "scan_ms"},
		Notes:  "recall climbs toward 1 with efSearch; query latency stays far below linear scan",
	}
	var scanTime time.Duration
	truth := make([]map[string]bool, len(queries))
	scanTime = timeIt(func() {
		for i, q := range queries {
			truth[i] = map[string]bool{}
			for _, r := range g.BruteForce(q, 10) {
				truth[i][r.Key] = true
			}
		}
	})
	scanPer := scanTime / time.Duration(len(queries))
	for _, ef := range []int{10, 20, 40, 80, 160, 320} {
		hits, total := 0, 0
		var elapsed time.Duration
		for i, q := range queries {
			var res []hnsw.Result
			elapsed += timeIt(func() { res = g.Search(q, 10, ef) })
			for _, r := range res {
				if truth[i][r.Key] {
					hits++
				}
			}
			total += len(truth[i])
		}
		rep.Rows = append(rep.Rows, []string{
			d(ef), f(float64(hits) / float64(total)),
			ms(elapsed / time.Duration(len(queries))), ms(scanPer),
		})
	}
	return rep
}

// E16Scalability addresses the tutorial's Section 3 indexing
// discussion: build and query cost of the three index families (set
// LSH ensemble, inverted lists/JOSIE, HNSW vectors) as the lake
// grows. Build time grows near-linearly; query time stays sub-linear
// for the indexes while the scan baseline grows linearly.
func E16Scalability() Report {
	rep := Report{
		ID:     "E16",
		Title:  "Index scalability: build and query time vs lake size",
		Header: []string{"columns", "index", "build_ms", "query_ms", "scan_ms"},
		Notes:  "index query time grows sub-linearly with lake size; scan grows linearly",
	}
	rng := rand.New(rand.NewSource(1616))
	zipf := rand.NewZipf(rng, 1.2, 1, 30000)
	for _, size := range []int{1000, 4000, 16000} {
		cols := make([][]string, size)
		for i := range cols {
			n := 10 + rng.Intn(50)
			vs := make([]string, n)
			for j := range vs {
				vs[j] = fmt.Sprintf("tok%d", zipf.Uint64())
			}
			cols[i] = vs
		}
		query := cols[size/2]

		// Per-query timings average several repetitions after one
		// untimed warm-up, so one-off costs (parameter-tuning caches,
		// allocator warmth) and scheduler noise do not dominate.
		const reps = 5
		avg := func(fn func()) time.Duration {
			fn() // warm up
			return timeIt(func() {
				for r := 0; r < reps; r++ {
					fn()
				}
			}) / reps
		}

		// Inverted index + JOSIE.
		var ix *invindex.Index
		bJosie := timeIt(func() {
			ib := invindex.NewBuilder()
			for i, vs := range cols {
				ib.Add(fmt.Sprintf("c%05d", i), vs)
			}
			var err error
			ix, err = ib.Build()
			if err != nil {
				panic(err)
			}
		})
		s := josie.NewSearcher(ix)
		qJosie := avg(func() { s.TopK(query, 10, josie.Adaptive) })

		// Scan baseline: exact overlap against every column.
		qScan := avg(func() {
			for _, vs := range cols {
				minhash.ExactOverlap(query, vs)
			}
		})

		// LSH ensemble. Its banded indexes build their band tables on
		// their first probe, so the build column times Build and the
		// first query.
		hasher := minhash.NewHasher(128, 1)
		qsig := hasher.Sign(query)
		var ens *lshensemble.Index
		bEns := timeIt(func() {
			ens = lshensemble.New(128, 8)
			for i, vs := range cols {
				ens.Add(lshensemble.Domain{Key: fmt.Sprintf("c%05d", i), Size: len(vs), Sig: hasher.Sign(vs)})
			}
			if err := ens.Build(); err != nil {
				panic(err)
			}
			if _, err := ens.Query(qsig, len(query), 0.7); err != nil {
				panic(err)
			}
		})
		qEns := avg(func() {
			if _, err := ens.Query(qsig, len(query), 0.7); err != nil {
				panic(err)
			}
		})

		// HNSW over char-gram column vectors.
		vecs := make([]embedding.Vector, size)
		for i, vs := range cols {
			v := embedding.Zero(32)
			for _, t := range vs {
				v.Add(embedding.RandomVector(t, 32, 3))
			}
			vecs[i] = v.Normalize()
		}
		var g *hnsw.Graph
		bHNSW := timeIt(func() {
			g = hnsw.New(hnsw.Config{M: 8, EfConstruction: 40, Seed: 2})
			for i, v := range vecs {
				g.Add(fmt.Sprintf("c%05d", i), v)
			}
		})
		qHNSW := avg(func() { g.Search(vecs[size/2], 10, 40) })

		rep.Rows = append(rep.Rows,
			[]string{d(size), "josie-inverted", ms(bJosie), ms(qJosie), ms(qScan)},
			[]string{d(size), "lsh-ensemble", ms(bEns), ms(qEns), ms(qScan)},
			[]string{d(size), "hnsw", ms(bHNSW), ms(qHNSW), ms(qScan)},
		)
	}
	return rep
}
