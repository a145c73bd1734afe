package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"tablehound/internal/discover"
	"tablehound/internal/server"
)

// cmdQuery is lakectl's client mode: instead of loading a lake and
// building a system locally, it queries a running lakeserved daemon.
//
//	lakectl query search -addr HOST:PORT -q "topic" [-k 10]
//	lakectl query vsearch -addr HOST:PORT -q "value" [-k 10]
//	lakectl query join -addr HOST:PORT -values "v1,v2,..." [-k 10]
//	        [-mode overlap|containment] [-threshold 0.5]
//	lakectl query union -addr HOST:PORT -table ID [-k 10]
//	        [-method tus|santos|starmie|d3l]
func cmdQuery(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("query: usage: lakectl query <search|vsearch|join|union> -addr HOST:PORT [flags]")
	}
	kind := args[0]
	fs := flag.NewFlagSet("query "+kind, flag.ExitOnError)
	addr := fs.String("addr", "", "lakeserved address (required)")
	k := fs.Int("k", 10, "results")
	q := fs.String("q", "", "query keywords (search, vsearch)")
	values := fs.String("values", "", "comma-separated query column values (join)")
	mode := fs.String("mode", "overlap", "join mode: overlap | containment")
	threshold := fs.Float64("threshold", 0.5, "containment threshold (join -mode containment)")
	tableID := fs.String("table", "", "query table ID (union)")
	method := fs.String("method", "tus", "union method: tus | santos | starmie | d3l")
	fs.Parse(args[1:])
	if *addr == "" {
		return fmt.Errorf("query: -addr is required")
	}
	c := server.NewClient(*addr)
	ctx := context.Background()

	switch kind {
	case "search":
		res, err := c.Keyword(ctx, server.KeywordRequest{Query: *q, K: *k})
		if err != nil {
			return err
		}
		for i, r := range res.Results {
			fmt.Printf("%2d. %-20s %6.2f\n", i+1, r.TableID, r.Score)
		}
	case "vsearch":
		res, err := c.Keyword(ctx, server.KeywordRequest{Query: *q, K: *k, Mode: "values"})
		if err != nil {
			return err
		}
		for i, cl := range res.Clusters {
			fmt.Printf("cluster %d (score %.2f, schema [%s]):\n", i+1, cl.Score, strings.Join(cl.Schema, ", "))
			for _, id := range cl.TableIDs {
				fmt.Printf("  %s\n", id)
			}
		}
	case "join":
		if *values == "" {
			return fmt.Errorf("query join: -values is required")
		}
		res, err := c.Join(ctx, server.JoinRequest{
			Values: strings.Split(*values, ","), K: *k, Mode: *mode, Threshold: *threshold,
		})
		if err != nil {
			return err
		}
		for i, m := range res.Matches {
			fmt.Printf("%2d. %-32s overlap=%-5d containment=%.2f\n", i+1, m.ColumnKey, m.Overlap, m.Containment)
		}
	case "union":
		if *tableID == "" {
			return fmt.Errorf("query union: -table is required")
		}
		res, err := c.Union(ctx, server.UnionRequest{TableID: *tableID, K: *k, Method: *method})
		if err != nil {
			return err
		}
		for i, r := range res.Results {
			fmt.Printf("%2d. %-20s %.3f\n", i+1, r.TableID, r.Score)
		}
	default:
		return fmt.Errorf("query: unknown kind %q (want search, vsearch, join, or union)", kind)
	}
	return nil
}

// remoteStats prints a running daemon's serving statistics.
func remoteStats(addr string) error {
	st, err := server.NewClient(addr).Stats(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("uptime:          %.1fs (snapshot gen %d)\n", st.UptimeSeconds, st.SnapshotGen)
	fmt.Printf("tables:          %d\ncolumns:         %d\nrows:            %d\ndistinct values: %d\n",
		st.Lake.Tables, st.Lake.Columns, st.Lake.Rows, st.Lake.DistinctValues)
	fmt.Printf("cache:           %d hits / %d misses (ratio %.2f), %d entries, %d evictions\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.HitRatio, st.Cache.Entries, st.Cache.Evictions)
	fmt.Printf("admission:       %d in flight, %d queued, %d shed, %d timeouts\n",
		st.InFlight, st.QueueDepth, st.Shed, st.Timeouts)
	if vs := st.VecStore; vs != nil {
		// "mixed": a merged delta chain's model rows alias the mapped
		// base file, its Starmie rows live on the heap.
		fmt.Printf("vector store:    %d vectors x %d dims in %d segments, %s on disk, %s on the heap, residency %s\n",
			vs.Vectors, vs.Dim, vs.Segments, memBytes(vs.Bytes), memBytes(vs.HeapBytes), vs.Mode)
	}
	for _, name := range []string{"join", "union", "keyword", "discover"} {
		ep, ok := st.Endpoints[name]
		if !ok {
			continue
		}
		fmt.Printf("%-8s         %d reqs (%.1f qps), %d errors, p50 %.1fms p95 %.1fms p99 %.1fms\n",
			name, ep.Requests, ep.QPS, ep.Errors, ep.P50Ms, ep.P95Ms, ep.P99Ms)
	}
	for _, stage := range []string{
		discover.StageMeta, discover.StageKeyword, discover.StageValues,
		discover.StageCandidates, discover.StageVerify,
	} {
		ds, ok := st.Discover[stage]
		if !ok || (ds.CandidatesIn == 0 && ds.CandidatesOut == 0) {
			continue
		}
		est := ""
		if ds.EstOut > 0 || ds.EstAbsErr > 0 {
			est = fmt.Sprintf(", est %d (abs err %d)", ds.EstOut, ds.EstAbsErr)
		}
		fmt.Printf("  stage %-18s %d in -> %d out%s, p50 %.2fms p95 %.2fms\n",
			stage, ds.CandidatesIn, ds.CandidatesOut, est, ds.P50Ms, ds.P95Ms)
	}
	return nil
}
