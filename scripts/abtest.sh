#!/usr/bin/env bash
# A/B of two commits on one host: both sides run back to back,
# alternating, so host drift lands on both equally.
#
#   bash scripts/abtest.sh PARENT [CHANGE]
#       End to end. Runs `bench/run.sh --seed S` (all four workloads,
#       one process per seed) for seeds 1-10, the parent first on odd
#       seeds and the change first on even ones. Writes the
#       parent's records to $OUT.base.json and the change's to
#       $OUT.json, then prints `make benchdiff` of the pair.
#
#   BENCH=REGEX PKG=./internal/union bash scripts/abtest.sh PARENT [CHANGE]
#       Microbenchmarks. Builds one `go test` binary per side and runs
#       them alternately 10 times (-test.count 1, -test.cpu 1 and
#       -test.benchtime 1s each, the parent first on odd rounds). Writes the raw `go test -bench` lines to
#       $OUT.base.txt and $OUT.txt (benchstat reads them) and prints,
#       per benchmark, both medians and how many rounds the change won.
#
# CHANGE defaults to HEAD; both are any commit-ish. Environment:
#   OUT        path prefix of the result files, e.g. BENCH_<pr> (required)
#
# An A/A run (PARENT = CHANGE) measures the noise floor of the protocol.
# Each side is a `git archive` export under a temporary directory, not a
# worktree, so an interrupted run leaves nothing registered in the
# repository; the temporary directory goes on exit.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: OUT=PREFIX [BENCH=REGEX PKG=PKG] scripts/abtest.sh PARENT [CHANGE]" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent=$(git -C "$root" rev-parse --short "$1^{commit}")
change=$(git -C "$root" rev-parse --short "${2:-HEAD}^{commit}")
out="${OUT:?OUT names the prefix of the result files, e.g. BENCH_<pr>}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for side in base change; do
    rev=$parent
    [ "$side" = change ] && rev=$change
    mkdir -p "$tmp/$side"
    git -C "$root" archive "$rev" | tar -x -C "$tmp/$side"
done
echo "parent $parent, change $change, in $tmp"

# order N prints the two sides in the order round or seed N runs them.
order() {
    if [ $(($1 % 2)) -eq 1 ]; then echo base change; else echo change base; fi
}

if [ -z "${BENCH:-}" ]; then
    : >"$out.base.json"
    : >"$out.json"
    for seed in $(seq 10); do
        for side in $(order "$seed"); do
            rev=$parent file=$out.base.json
            [ "$side" = change ] && rev=$change file=$out.json
            echo "== seed $seed: $side ($rev)"
            rm -rf "$tmp/out"
            (cd "$tmp/$side" && TABLEHOUND_BENCH_COMMIT=$rev bash bench/run.sh --seed "$seed" --out "$tmp/out" >"$tmp/run.log") ||
                { cat "$tmp/run.log" >&2; exit 1; }
            for wl in serve_cold serve_cached serve_routed lifecycle; do
                cat "$tmp/out/$wl.json" >>"$file"
            done
        done
    done
    echo "== make benchdiff OLD=$out.base.json NEW=$out.json"
    status=0
    make -s -C "$root" benchdiff OLD="$out.base.json" NEW="$out.json" || status=$?
    exit $status
fi

pkg="${PKG:?PKG names the package of the benchmarks, e.g. ./internal/union}"
for side in base change; do
    (cd "$tmp/$side" && go test -c -o "$tmp/$side.test" "$pkg")
done
: >"$out.base.txt"
: >"$out.txt"
for round in $(seq 10); do
    for side in $(order "$round"); do
        file=$out.base.txt
        [ "$side" = change ] && file=$out.txt
        (cd "$tmp/$side/$pkg" && "$tmp/$side.test" -test.run '^$' -test.bench "$BENCH" \
            -test.benchmem -test.count 1 -test.cpu 1 -test.benchtime 1s) |
            grep '^Benchmark' >>"$file"
    done
done

# Per benchmark: the median ns/op of each side, the change in percent,
# and the rounds (the i-th line of a name on each side) the change won;
# a benchmark only one side has gets its median alone.
awk '
    FNR == 1 { side++ }
    /^Benchmark/ {
        for (f = 3; f < NF; f++) if ($(f + 1) == "ns/op") break
        n = ++count[side, $1]
        ns[side, $1, n] = $f
        if (n == 1 && !($1 in seen)) { seen[$1]; names[++nn] = $1 }
    }
    function median(s, name,    n, i, j, t, v) {
        n = count[s, name]
        for (i = 1; i <= n; i++) v[i] = ns[s, name, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
    }
    END {
        printf "%-48s %14s %14s %8s %6s\n", "benchmark", "parent ns/op", "change ns/op", "change", "wins"
        for (k = 1; k <= nn; k++) {
            name = names[k]
            if (!count[1, name] || !count[2, name]) {
                printf "%-48s %14s %14s   (on one side only)\n", name,
                    count[1, name] ? median(1, name) : "-", count[2, name] ? median(2, name) : "-"
                continue
            }
            a = median(1, name); b = median(2, name)
            wins = 0; pairs = count[1, name] < count[2, name] ? count[1, name] : count[2, name]
            for (i = 1; i <= pairs; i++) if (ns[2, name, i] < ns[1, name, i]) wins++
            printf "%-48s %14.0f %14.0f %+7.1f%% %3d/%d\n", name, a, b, 100 * (b - a) / a, wins, pairs
        }
    }
' "$out.base.txt" "$out.txt"
