package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tablehound/internal/core"
	"tablehound/internal/datagen"
	"tablehound/internal/lake"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// cycle is one pass of the operator's path from nothing to a lake that
// can be served: write CSVs, ingest, build, save, load, add the
// held-out tables as a delta, load the chain, compact. Every workload
// sets up this way, so every workload reports the write-side metrics;
// what differs is the lake, the pipeline stages and what is served.
type cycle struct {
	lake *lakeFiles
	// base is the base snapshot as loaded from disk; chain is base plus
	// the delta merged on read; sys is the compacted fold of the two and
	// is what the workload serves.
	base, chain, sys *core.System
	// shards and manifest are set when the workload serves a
	// partitioned lake.
	shards   []*core.System
	manifest *snap.Manifest

	stats *core.BuildStats
	// sec holds each phase's wall time in seconds, keyed by phase name.
	sec   map[string]float64
	total float64

	snapshotBytes, deltaBytes int64
	heapAfterLoadMiB          float64
	buildAllocMiB             float64
	loadAllocMiB              float64
	indexEncodedMiB           float64
}

const mib = 1 << 20

// buildOptions are the construction options of a workload's lake: the
// program's defaults, minus the stages no serving endpoint reads when
// the workload only serves.
func buildOptions(servingOnly bool) core.Options {
	return core.Options{SkipFuzzy: servingOnly, SkipGraph: servingOnly, SkipOrganization: servingOnly}
}

// runCycle performs one cycle under dir. deep adds the measurements
// only the traced pass reports (a second, heap-mode load). tr may be
// nil.
func runCycle(dir string, lakeCfg datagen.Config, servingOnly bool, nShards int, deep bool, tr *tracer, id string) (*cycle, error) {
	c := &cycle{sec: make(map[string]float64)}
	start := time.Now()
	// phase times fn with a collection before it, so one phase's
	// garbage is not collected on the next one's clock.
	phase := func(name string, fn func() error) error {
		runtime.GC()
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		c.sec[name] = d.Seconds()
		tr.add(name, id, "cycle", t0, d, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var ms0, ms1 runtime.MemStats

	if err := phase("csv_write", func() (err error) {
		c.lake, err = writeLake(dir, lakeCfg)
		return err
	}); err != nil {
		return nil, err
	}
	basePath := filepath.Join(dir, "base.snap")
	deltaPath := filepath.Join(dir, "delta-0001.thdb")
	opts := buildOptions(servingOnly)

	var cat *lake.Catalog
	if err := phase("ingest", func() (err error) {
		cat, err = lake.LoadCSVDirN(c.lake.baseDir, 0)
		return err
	}); err != nil {
		return nil, err
	}
	var built *core.System
	runtime.ReadMemStats(&ms0)
	buildStart := time.Now()
	if err := phase("build", func() (err error) {
		built, err = core.Build(cat, opts)
		return err
	}); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	c.buildAllocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
	c.stats = built.BuildStats
	for _, st := range c.stats.Stages {
		// BuildStats gives each stage's wall time but not its start.
		tr.add("build."+st.Name, id, "build", buildStart, st.Wall, map[string]float64{"items": float64(st.Items)})
	}
	if err := phase("save", func() error { return built.SaveFile(basePath) }); err != nil {
		return nil, err
	}
	c.indexEncodedMiB = float64(built.MemStats().Totals().Bytes) / mib
	fi, err := os.Stat(basePath)
	if err != nil {
		return nil, err
	}
	c.snapshotBytes = fi.Size()
	built, cat = nil, nil

	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if err := phase("load", func() (err error) {
		c.base, err = core.LoadFile(basePath, core.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	c.loadAllocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	c.heapAfterLoadMiB = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / mib
	if deep {
		if err := phase("load_heap", func() error {
			_, err := core.LoadFile(basePath, core.Options{VecMode: "heap"})
			return err
		}); err != nil {
			return nil, err
		}
	}

	if err := phase("delta_build", func() error {
		added, err := c.lake.readAdded()
		if err != nil {
			return err
		}
		d, err := core.BuildDelta(basePath, nil, added, nil, core.Options{})
		if err != nil {
			return err
		}
		return d.SaveFile(deltaPath)
	}); err != nil {
		return nil, err
	}
	if fi, err = os.Stat(deltaPath); err != nil {
		return nil, err
	}
	c.deltaBytes = fi.Size()
	if err := phase("chain_load", func() (err error) {
		c.chain, err = core.LoadChainFiles(basePath, []string{deltaPath}, core.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := phase("compact", func() (err error) {
		c.sys, err = core.CompactFiles(basePath, []string{deltaPath}, filepath.Join(dir, "compacted.snap"), core.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	if nShards > 1 {
		if err := phase("shard_build", func() (err error) {
			c.shards, c.manifest, err = buildShards(c.sys.Catalog.Tables(), opts, nShards)
			return err
		}); err != nil {
			return nil, err
		}
	}
	c.total = time.Since(start).Seconds()
	tr.add("cycle", id, "", start, time.Since(start), map[string]float64{"tables": float64(len(c.lake.ids))})
	return c, nil
}

// buildShards partitions tables with the production assignment
// function and builds one system per shard, the shards side by side on
// one worker each, as `lakectl build -shards n` does.
func buildShards(tables []*table.Table, opts core.Options, n int) ([]*core.System, *snap.Manifest, error) {
	parts := make([]*lake.Catalog, n)
	ids := make([][]string, n)
	for i := range parts {
		parts[i] = lake.NewCatalog()
	}
	for _, t := range tables {
		i := snap.ShardOf(t.ID, n)
		if err := parts[i].Add(t); err != nil {
			return nil, nil, err
		}
		ids[i] = append(ids[i], t.ID)
	}
	opts.Parallelism = 1
	systems := make([]*core.System, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			systems[i], errs[i] = core.Build(parts[i], opts)
		}(i)
	}
	wg.Wait()
	man := &snap.Manifest{Assign: snap.AssignFNV1a}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		man.Shards = append(man.Shards, snap.ShardEntry{
			Snapshot:   fmt.Sprintf("lake.%d.snap", i),
			Generation: snap.HashIDs(ids[i]),
			Tables:     len(ids[i]),
		})
	}
	return systems, man, nil
}
