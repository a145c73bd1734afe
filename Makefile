# Developer entry points. `make check` is the tier-1 verify gate;
# `make race` exercises the concurrent build pipeline and the
# concurrent query paths under the race detector (slower, so it
# targets the packages that share state), then fuzzes the snapshot and
# delta loaders for 15 s each (see `make fuzz`).

GO ?= go
COUNT ?= 1

.PHONY: check race fuzz loc bench-build bench-query bench-snapshot bench-vec bench-delta bench-e2e benchdiff abtest serve-smoke snapshot-smoke shard-smoke delta-smoke discover-smoke

# The end-to-end harness under bench/ is a nested module: `go build
# ./...` here does not compile it, yet it imports this module's
# packages, so the gate vets and builds it too.
#
# The serving daemon must not link the library-only engines, nor LSH
# Ensemble, which only the experiments keep as a baseline (containment
# is served exactly from the join postings): `go list -deps
# ./cmd/lakeserved` may reach none of SERVING_FORBIDDEN.
SERVING_FORBIDDEN = apps annotate profile lshensemble

check:
	@unformatted=$$(gofmt -l cmd internal examples bench *.go); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	@deps=$$($(GO) list -deps ./cmd/lakeserved) || exit 1; \
	for p in $(SERVING_FORBIDDEN); do \
		if echo "$$deps" | grep -qx "tablehound/internal/$$p"; then \
			echo "cmd/lakeserved depends on tablehound/internal/$$p"; exit 1; fi; done
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench build ./...

# Non-test Go lines outside the benchmark harness: the number ROADMAP
# aim 2 ("the least code") is tracked by.
loc:
	@git ls-files '*.go' | grep -v -e _test.go -e '^bench/' | xargs cat | wc -l

race:
	$(GO) test -race ./internal/core/... ./internal/hnsw/... ./internal/join/... \
		./internal/union/... ./internal/starmie/... ./internal/table/... \
		./internal/lake/... ./internal/parallel/... ./internal/keyword/... \
		./internal/dict/... ./internal/server/... ./internal/qcache/... \
		./internal/obs/... ./internal/snap/... ./internal/invindex/... \
		./internal/lshensemble/... ./internal/router/... ./internal/vecstore/... \
		./internal/discover/... ./internal/josie/... ./internal/lsh/...
	$(GO) test -run XXX -fuzz 'FuzzLoadSection$$' -fuzztime 15s -fuzzminimizetime 3s ./internal/core
	$(GO) test -run XXX -fuzz 'FuzzLoadDeltaSection$$' -fuzztime 15s -fuzzminimizetime 3s ./internal/core

# Native fuzzing of the snapshot and delta loaders: FuzzLoadSection
# forges one section of a small valid snapshot per input, and
# FuzzLoadDeltaSection one section of a small valid delta chained onto
# its base. Plain `go test` replays the committed seeds and any crasher
# kept under testdata/fuzz. The seeds are real sections of up to 40 KB,
# and minimizing each new corpus entry that large takes the default
# minute with no executions in between, so minimization is capped.
# FuzzDot4 checks the four-wide dot kernel against Dot bit for bit on
# arbitrary float32 bits (NaN, infinities, subnormals).
fuzz:
	$(GO) test -run XXX -fuzz 'FuzzLoadSection$$' -fuzztime 60s -fuzzminimizetime 3s ./internal/core
	$(GO) test -run XXX -fuzz 'FuzzLoadDeltaSection$$' -fuzztime 60s -fuzzminimizetime 3s ./internal/core
	$(GO) test -run XXX -fuzz 'FuzzDot4$$' -fuzztime 60s ./internal/embedding

# End-to-end smoke of the serving layer: real lakeserved process over
# a generated 100-table lake, one query per endpoint via lakectl's
# client mode, graceful SIGTERM shutdown.
serve-smoke:
	bash scripts/serve_smoke.sh

# End-to-end smoke of the snapshot lifecycle: lakectl build writes a
# snapshot, lakeserved serves from it, hot reload via SIGHUP and
# POST /v1/admin/reload, graceful SIGTERM shutdown.
snapshot-smoke:
	bash scripts/snapshot_smoke.sh

# End-to-end smoke of sharded serving: lakectl build -shards 2, two
# shard servers plus the router, queries through the fan-out, graceful
# degradation when a shard dies, recovery, and a rolling reload.
shard-smoke:
	bash scripts/shard_smoke.sh

# End-to-end smoke of incremental maintenance: lakectl add/remove
# build delta snapshots over a frozen base, lakeserved serves the
# chain merge-on-read, POST /v1/admin/compact folds it back into the
# base in place (retiring the delta files), and merged queries are
# bit-identical to the compacted fold.
delta-smoke:
	bash scripts/delta_smoke.sh

# End-to-end smoke of conditional discovery: structured /v1/discover
# queries (predicates, explain, parity with the bare endpoints)
# against a single server, then through the router over a 2-shard
# fleet including degradation with one shard down, graceful drain.
discover-smoke:
	bash scripts/discover_smoke.sh

bench-build:
	$(GO) test -run xxx -bench 'BenchmarkSystemBuild' -benchtime 2x .

# Snapshot save/load over the 500-table lake. The Load/BuildPar ratio
# is the startup speedup of serving from a snapshot.
# BenchmarkSnapshotLoadFullPipeline loads the end-to-end benchmark's
# `lifecycle` lake shape with the default options (its load_s), and
# BenchmarkSnapshotLoadServing its `serve_cold` shape with the serving
# options, with its allocations (allocs/op, B/op) and the heap one
# loaded system retains (heap-MiB). BenchmarkFuzzyFirstSearch, BenchmarkFirstNavigate and
# BenchmarkFirstJoinPath time the first call of a fresh `lifecycle`
# system, which builds the index no build or load does: the fuzzy index
# and its k-means table, the organization, the Aurum graph.
# BenchmarkFirstTUSSearch times the first TUS search of a fresh
# `serve_cold` system, which builds the set-LSH band tables it probes;
# BenchmarkFirstContainmentSearch its first containment search, which
# reads the posting lists the load decoded and so costs what a later
# one does.
bench-snapshot:
	$(GO) test -run xxx -bench 'BenchmarkSnapshot|BenchmarkSystemBuildPar|BenchmarkFuzzyFirstSearch|BenchmarkFirst' -benchtime 2x .

# Incremental-vs-full cost of adding 10 tables to the 500-table lake:
# BenchmarkDeltaAdd10 (lakectl add) against BenchmarkDeltaFullRebuild
# (the from-scratch build it replaces), plus the merge-on-load cost a
# compaction reclaims — over that lake without the graph, over the
# end-to-end benchmark's 100-table `lifecycle` lake shape with every
# rebuilt stage on (BenchmarkDeltaChainLoadFullPipeline), and over its
# 300-table `serve_cold` shape with the serving options
# (BenchmarkDeltaChainLoadServing, which also reports its allocations
# and seven of the merge's stage walls: dict, keyword, join, tus,
# santos, d3l and vecs).
# BenchmarkDeltaAddServing is `lakectl add` over that `serve_cold`
# shape (BuildDelta + SaveFile, the harness's delta_build phase), with
# its allocations. Results recorded in EXPERIMENTS.md.
bench-delta:
	$(GO) test -run xxx -bench 'BenchmarkDelta' -benchtime 2x -timeout 1200s .

# Query-serving benchmarks over the 500-table lake, including the
# loopback-HTTP serving benchmark (cold vs warm cache) and the routed
# union classes over the end-to-end benchmark's 2-shard fleet, plus the
# D3L whole-lake scan over the serving workloads' 300-table lake (/300,
# where its max-score bound passes over most tables; /300/inline sends
# each table as a new inline query) and the lifecycle workload's
# 100-table lake (/100, where it prunes little), one
# sequential TUS search over a 300-table lake (the union scoring kernel
# both share), one Starmie query by staged pointer and by copy, the
# HNSW kernel both engines share (Add is the write side: builds, chain
# loads, compactions; 24-dim test vectors, and 64-dim ones under each
# served graph's config), the dot kernel under the HNSW beams and the
# union weight matrices (four Dot calls beside one Dot4, and the cosine
# with and without stored norms), and what an inline query table pays
# per cell: the out-of-vocabulary embedding kernel and type inference,
# each beside the kernel it replaced; and the two join indexes on their
# own — JOSIE over 10k Zipf sets, one LSH and one LSH Ensemble probe,
# and the ensemble build of the experiments' approximate containment
# baseline (with the heap it retains; the band tables wait for their
# first probe).
# Set COUNT=10 for benchstat-worthy samples:
# make bench-query COUNT=10 > new.txt
bench-query:
	$(GO) test -run xxx \
		-bench 'BenchmarkQuery|BenchmarkKeywordSearch|BenchmarkServeQPS|BenchmarkRoutedUnion|BenchmarkD3LSearch|BenchmarkTUSSearch|BenchmarkSantosSearch|BenchmarkStarmieSearch|BenchmarkHNSW|BenchmarkCosine|BenchmarkDot|BenchmarkCharGramVector|BenchmarkInferType|BenchmarkJosieTopK|BenchmarkLSHQuery|BenchmarkLSHEnsemble' \
		-benchmem -count $(COUNT) . ./internal/union/ ./internal/starmie/ ./internal/hnsw/ \
		./internal/embedding/ ./internal/table/

# The end-to-end benchmark BENCHMARK.json declares: all four workloads,
# untraced (see bench/README.md for flags; results land in bench/out/).
bench-e2e:
	bash bench/run.sh

# Compare two sets of bench-e2e records against BENCHMARK.json's bounds:
# make benchdiff OLD=/tmp/old.json NEW=/tmp/new.json
benchdiff:
	$(GO) -C bench run ./benchdiff -benchmark ../BENCHMARK.json $(OLD) $(NEW)

# Back-to-back A/B of two commits (scripts/abtest.sh): both exported
# under a temp dir, bench/run.sh alternating over seeds 1-10, the
# parent's records to $(OUT).base.json and the change's to $(OUT).json,
# then their benchdiff. With BENCH and PKG set it alternates the two
# sides' `go test -bench` binaries instead:
# make abtest PARENT=<sha> [CHANGE=HEAD] OUT=BENCH_<pr>
# make abtest PARENT=<sha> OUT=/tmp/d3l BENCH=BenchmarkD3LSearch PKG=./internal/union
abtest:
	bash scripts/abtest.sh $(PARENT) $(CHANGE)

# Vector-store benchmarks: the heap-vs-mmap reload ratio of a
# 100k-column-vector datagen corpus, the k-means behind PEXESO's
# centroids (14k × 64, k = 118) on one and two workers beside the
# kernel it replaced, and the cosine-with-precomputed-norms
# micro-benchmark. Results are recorded in EXPERIMENTS.md.
bench-vec:
	$(GO) test -run xxx -bench 'BenchmarkVecBlobLoad' \
		-benchtime 200x -timeout 900s -count $(COUNT) ./internal/vecstore/
	$(GO) test -run xxx -bench 'BenchmarkTrain' -benchmem -benchtime 5x \
		-count $(COUNT) ./internal/vecstore/
	$(GO) test -run xxx -bench 'BenchmarkCosine' -benchmem -count $(COUNT) \
		./internal/embedding/
