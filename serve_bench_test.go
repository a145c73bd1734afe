package tablehound

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"tablehound/internal/server"
)

// BenchmarkServeQPS measures end-to-end serving throughput over
// loopback HTTP — JSON decode, admission, query, JSON encode — with
// the query cache cold (disabled) vs warm (every request a hit). The
// warm/cold p50 gap is the measured value of the serving layer's
// cache; reported as p50-us alongside qps.
func BenchmarkServeQPS(b *testing.B) {
	sys := queryBenchSystem(b)
	qt, qvals := queryBenchInputs(sys.Catalog)

	run := func(b *testing.B, cacheEntries int) {
		srv := server.New(sys, server.Config{
			CacheEntries: cacheEntries,
			MaxInFlight:  64,
			MaxQueue:     4096,
			QueryTimeout: time.Minute,
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		c := server.NewClient(ts.URL)
		ctx := context.Background()

		reqs := []func() error{
			func() error {
				_, err := c.Join(ctx, server.JoinRequest{Values: qvals, K: 10})
				return err
			},
			func() error {
				_, err := c.Union(ctx, server.UnionRequest{TableID: qt.ID, K: 10})
				return err
			},
			func() error {
				_, err := c.Keyword(ctx, server.KeywordRequest{Query: qt.Name, K: 10})
				return err
			},
		}
		// Prime: with the cache enabled this makes every timed request
		// a hit; with it disabled it just warms the HTTP connection.
		for _, r := range reqs {
			if err := r(); err != nil {
				b.Fatal(err)
			}
		}

		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if err := reqs[i%len(reqs)](); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		b.StopTimer()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2])/float64(time.Microsecond), "p50-us")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	}

	b.Run("cold-cache", func(b *testing.B) { run(b, 0) })
	b.Run("warm-cache", func(b *testing.B) { run(b, 4096) })
}
