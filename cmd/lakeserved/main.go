// Command lakeserved serves a discovery system over HTTP:
// joinable-column, unionable-table, and keyword search as JSON
// endpoints, plus /healthz, /stats, a Prometheus-format /metrics, and
// an admin reload endpoint.
//
// Usage:
//
//	lakeserved -lake DIR | -snapshot FILE
//	           [-deltas GLOB] [-compact-depth N]
//	           [-manifest FILE -shard N]
//	           [-addr :8080] [-parallel N] [-qparallel N]
//	           [-max-inflight N] [-queue N] [-cache-entries N]
//	           [-timeout D] [-drain D]
//	lakeserved -router -shard-addrs HOST:PORT,HOST:PORT,...
//	           [-addr :8080] [-cache-entries N]
//	           [-shard-timeout D] [-health-interval D]
//
// With -lake the system is built from a directory of CSVs at startup;
// with -snapshot it is loaded from a file written by `lakectl build
// -o`, which starts in a small fraction of the build time. SIGHUP (or
// POST /v1/admin/reload) re-reads the source and atomically swaps the
// new system in without dropping traffic; with both flags given,
// -snapshot is what startup and reloads read.
//
// With -manifest (from `lakectl build -shards N`) the daemon serves
// one shard of a partitioned lake: -shard picks the index, -snapshot
// defaults to that shard's entry in the manifest, and /healthz reports
// the shard identity so a router can verify the partitioning.
//
// With -deltas (a glob or comma list of `lakectl add`/`lakectl
// remove` delta files) the daemon serves the base snapshot with the
// delta chain merged on top; the spec is re-expanded on every reload,
// so `lakectl add` + SIGHUP makes new tables searchable with no
// restart and no rebuild. POST /v1/admin/compact folds the chain into
// the base snapshot in place, retires the consumed delta files as
// *.applied, and hot-swaps the merged system without purging the query
// cache (the fold is bit-identical). -compact-depth N does the same
// automatically in the background whenever a (re)load leaves the chain
// N deltas deep.
//
// With -router the daemon serves no lake itself: it fans every query
// across the shard servers in -shard-addrs (one per shard, in shard
// order), merges their top-k answers exactly, and degrades to partial
// 200 responses when shards fail. SIGHUP (or POST /v1/admin/reload)
// rolls a reload across the shards one at a time.
//
// The serving layer bounds concurrent query execution (-max-inflight)
// with a bounded FIFO wait queue (-queue); beyond both, requests are
// shed with 429. Query results are cached (-cache-entries; 0
// disables). SIGINT/SIGTERM trigger a graceful shutdown: new requests
// get 503 while in-flight queries get up to -drain to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/lake"
	"tablehound/internal/router"
	"tablehound/internal/server"
	"tablehound/internal/snap"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lakeserved:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("lakeserved", flag.ExitOnError)
	dir := fs.String("lake", "", "lake directory of CSV files")
	snapPath := fs.String("snapshot", "", "system snapshot file from `lakectl build -o` (replaces -lake)")
	deltaSpec := fs.String("deltas", "", "comma-separated delta snapshots (globs allowed) applied on top of -snapshot; re-expanded on every reload")
	compactDepth := fs.Int("compact-depth", 0, "fold the delta chain into the base in the background when it reaches this depth (0 = manual via POST /v1/admin/compact)")
	addr := fs.String("addr", ":8080", "listen address")
	parallel := fs.Int("parallel", 0, "construction workers (0 = all CPUs)")
	qparallel := fs.Int("qparallel", 0, "per-query workers (0 = all CPUs)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing queries (0 = NumCPU)")
	queue := fs.Int("queue", 0, "max queries waiting for a slot (0 = 4x max-inflight)")
	cacheEntries := fs.Int("cache-entries", 4096, "query-result cache size (0 disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-query execution budget")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain deadline")
	timing := fs.Bool("timing", false, "print per-stage build timing to stderr")
	vecMode := fs.String("vec-mode", "auto", "snapshot vector materialization: auto | heap | mmap (zero-copy)")
	nprobe := fs.Int("nprobe", 0, "clusters visited by pruned exact vector search (0 = all = exhaustive-identical)")
	centroids := fs.Int("centroids", 0, "coarse-quantizer clusters when building from -lake (0 = auto, -1 = off)")
	routerMode := fs.Bool("router", false, "route queries across shard servers instead of serving a lake")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard server addresses (router mode)")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Second, "per-shard sub-request budget (router mode)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "shard health polling period (router mode)")
	manifestPath := fs.String("manifest", "", "shard manifest from `lakectl build -shards` (serve one shard)")
	shardIdx := fs.Int("shard", -1, "shard index to serve from -manifest")
	fs.Parse(os.Args[1:])

	log.SetPrefix("lakeserved: ")
	log.SetFlags(log.LstdFlags)

	if *routerMode {
		addrs := strings.Split(*shardAddrs, ",")
		out := addrs[:0]
		for _, a := range addrs {
			if a = strings.TrimSpace(a); a != "" {
				out = append(out, a)
			}
		}
		if len(out) == 0 {
			return fmt.Errorf("-router requires -shard-addrs")
		}
		return runRouter(*addr, out, *shardTimeout, *healthInterval, *cacheEntries, *drain)
	}

	// Shard mode: resolve identity (and, by default, the snapshot path)
	// from the manifest.
	var shardIdent *server.ShardIdentity
	if *manifestPath != "" {
		man, err := snap.ReadManifestFile(*manifestPath)
		if err != nil {
			return err
		}
		if *shardIdx < 0 || *shardIdx >= len(man.Shards) {
			return fmt.Errorf("-manifest has %d shards; -shard must be in [0, %d)", len(man.Shards), len(man.Shards))
		}
		shardIdent = &server.ShardIdentity{
			Index:        *shardIdx,
			Count:        len(man.Shards),
			ManifestHash: man.Hash(),
		}
		if *snapPath == "" {
			*snapPath = filepath.Join(filepath.Dir(*manifestPath), man.Shards[*shardIdx].Snapshot)
		}
		log.Printf("serving shard %d/%d of manifest %s (hash %016x)",
			*shardIdx, len(man.Shards), *manifestPath, man.Hash())
	} else if *shardIdx >= 0 {
		return fmt.Errorf("-shard requires -manifest")
	}
	if *dir == "" && *snapPath == "" {
		return fmt.Errorf("one of -lake, -snapshot, or -manifest is required")
	}

	if *deltaSpec != "" && *snapPath == "" {
		return fmt.Errorf("-deltas requires -snapshot (deltas chain onto a base snapshot)")
	}

	opts := func() core.Options {
		return core.Options{
			Parallelism:      *parallel,
			QueryParallelism: *qparallel,
			VecMode:          *vecMode,
			VecNProbe:        *nprobe,
			VecCentroids:     *centroids,
		}
	}

	// load produces a fresh system from the configured source; it backs
	// both startup and every subsequent reload. The -deltas spec is
	// re-expanded on every call, so a reload picks up delta files that
	// appeared (lakectl add) or were retired (compaction) since the last
	// load — new tables become searchable with no restart and no
	// rebuild.
	load := func() (*core.System, error) {
		if *snapPath != "" {
			chain, err := core.ExpandDeltas(*deltaSpec)
			if err != nil {
				return nil, err
			}
			sys, err := core.LoadChainFiles(*snapPath, chain, opts())
			if err != nil {
				return nil, err
			}
			// Deltas already folded into the base — a compaction was
			// interrupted (or a retirement rename failed) after the new
			// base was installed. The loader skipped them; finish the
			// retirement here so later reloads stop seeing them.
			for _, p := range sys.Lineage.Folded {
				if rerr := os.Rename(p, p+".applied"); rerr != nil {
					log.Printf("retiring already-compacted delta %s: %v (serving is unaffected)", p, rerr)
				} else {
					log.Printf("retired already-compacted delta %s (left over from an interrupted compaction)", p)
				}
			}
			return sys, nil
		}
		cat, err := lake.LoadCSVDirN(*dir, *parallel)
		if err != nil {
			return nil, err
		}
		return core.Build(cat, opts())
	}

	start := time.Now()
	sys, err := load()
	if err != nil {
		return err
	}
	if *timing {
		fmt.Fprint(os.Stderr, sys.BuildStats.Report())
	}
	st := sys.Catalog.Stats()
	source := *snapPath
	verb := "loaded snapshot"
	if source == "" {
		source, verb = *dir, "built system over"
	}
	log.Printf("%s %s: %d tables, %d columns, %d distinct values in %v",
		verb, source, st.Tables, st.Columns, st.DistinctValues, time.Since(start).Round(time.Millisecond))
	if depth := sys.Lineage.Depth(); depth > 0 {
		log.Printf("serving a delta chain of depth %d (%d tombstones)",
			depth, sys.Lineage.TombstoneCount())
	}

	srv := server.New(sys, server.Config{
		MaxInFlight:  *maxInflight,
		MaxQueue:     *queue,
		QueryTimeout: *timeout,
		DrainTimeout: *drain,
		CacheEntries: *cacheEntries,
		Shard:        shardIdent,
	})
	srv.SetReloader(load)

	// Compaction folds the serving delta chain into the base snapshot
	// in place (CompactFiles writes through a temp file + rename, so a
	// concurrent load of the old base never sees a torn file), retires
	// the consumed delta files as *.applied so later reloads do not
	// re-apply them, and hands the merged system to the server to swap
	// in. The merge has the same data generation as the chain it folds,
	// so the swap keeps the query cache warm. A crash or rename failure
	// between the base install and delta retirement is recoverable:
	// loaders recognize deltas already folded into the base (their
	// chain ends at the base's generation), skip them, and the load
	// path above finishes the retirement.
	if *snapPath != "" {
		srv.SetCompactor(func() (*core.System, error) {
			chain, err := core.ExpandDeltas(*deltaSpec)
			if err != nil {
				return nil, err
			}
			if len(chain) == 0 {
				return nil, fmt.Errorf("compact: no delta files to fold")
			}
			t0 := time.Now()
			merged, err := core.CompactFiles(*snapPath, chain, *snapPath, opts())
			if err != nil {
				return nil, err
			}
			for _, d := range chain {
				if err := os.Rename(d, d+".applied"); err != nil {
					log.Printf("compact: retiring %s: %v", d, err)
				}
			}
			log.Printf("compacted %d deltas into %s (%d tables) in %v",
				len(chain), *snapPath, merged.Catalog.Stats().Tables, time.Since(t0).Round(time.Millisecond))
			return merged, nil
		})
	}

	// maybeCompact starts a background compaction when the serving
	// chain is at least -compact-depth deep. srv.Compact serializes on
	// the server's reload mutex; the flag keeps a slow compaction from
	// stacking goroutines behind it. Failure is logged and the chain
	// keeps serving — merge-on-read is correct at any depth, compaction
	// only reclaims per-query merge overhead.
	var compacting atomic.Bool
	maybeCompact := func(s *core.System) {
		if *compactDepth <= 0 || s.Lineage.Depth() < *compactDepth {
			return
		}
		if !compacting.CompareAndSwap(false, true) {
			return
		}
		go func() {
			defer compacting.Store(false)
			if _, err := srv.Compact(); err != nil {
				log.Printf("background compaction failed (still serving the delta chain): %v", err)
			}
		}()
	}
	maybeCompact(sys)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errCh:
			return err
		case sig := <-sigCh:
			if sig != syscall.SIGHUP {
				log.Printf("received %v, draining", sig)
				break loop
			}
			// SIGHUP: reload off the serving path and swap atomically.
			t0 := time.Now()
			newSys, err := srv.Reload()
			if err != nil {
				log.Printf("reload failed (still serving the old snapshot): %v", err)
				continue
			}
			ns := newSys.Catalog.Stats()
			log.Printf("reloaded: %d tables, %d columns, delta depth %d in %v",
				ns.Tables, ns.Columns, newSys.Lineage.Depth(), time.Since(t0).Round(time.Millisecond))
			maybeCompact(newSys)
		}
	}

	// Drain in-flight queries first (new requests get 503), then close
	// the listener and idle connections.
	ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}

// runRouter serves the scatter-gather tier: no lake of its own, just a
// fan-out over the shard servers with exact top-k merging and graceful
// degradation. SIGHUP rolls a reload across the shards.
func runRouter(addr string, shardAddrs []string, shardTimeout, healthInterval time.Duration, cacheEntries int, drain time.Duration) error {
	rt, err := router.New(router.Config{
		Addrs:          shardAddrs,
		ShardTimeout:   shardTimeout,
		HealthInterval: healthInterval,
		CacheEntries:   cacheEntries,
	})
	if err != nil {
		return err
	}
	up := rt.CheckShards(context.Background())
	log.Printf("routing over %d shards (%d up)", len(shardAddrs), up)
	rt.Start()
	defer rt.Stop()

	httpSrv := &http.Server{Addr: addr, Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errCh:
			return err
		case sig := <-sigCh:
			if sig != syscall.SIGHUP {
				log.Printf("received %v, draining", sig)
				break loop
			}
			t0 := time.Now()
			res := rt.ReloadAll(context.Background())
			log.Printf("rolling reload: %s shards ok in %v", res.ShardsOK, time.Since(t0).Round(time.Millisecond))
			for _, sh := range res.Shards {
				if !sh.OK {
					log.Printf("  shard %d reload failed: %s", sh.Shard, sh.Error)
				}
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}
