#!/bin/sh
# bench_compare.sh — run the hot-path micro-benchmark subset and compare
# it against a recorded baseline.
#
# Usage:
#   scripts/bench_compare.sh [baseline-file]
#
# The subset (predictor kernels, the §4.1 hash update, the two-step
# profiling pipeline, the end-to-end simulation loop, and the served
# prediction round trip) runs with
# -count=5 so the comparison has variance to work with. The run is saved
# to $RESULTS/bench_micro.txt; with BENCH_JSON_DIR exported the artifact
# benchmarks in the subset also emit repro-bench/v1 JSON reports there.
#
# Comparison: benchstat when it is on PATH (statistically sound), else a
# plain per-benchmark mean-ns/op delta table. If the baseline file does
# not exist yet, the current run is recorded as the baseline and the
# script exits cleanly — so the first run on a machine seeds the baseline
# and later runs diff against it.
set -eu

cd "$(dirname "$0")/.."

RESULTS="${RESULTS:-results}"
BENCHES="${BENCHES:-BenchmarkGshareLookupUpdate|BenchmarkVLPCondLookupUpdate|BenchmarkVLPIndirectLookupUpdate|BenchmarkHashSetInsert|BenchmarkHashSetDirect|BenchmarkProfilingPipeline|BenchmarkEndToEndSim|BenchmarkServeEndToEnd|BenchmarkFusedSweep|BenchmarkSnapshotRoundtrip|BenchmarkEngineDedup}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-100ms}"
baseline="${1:-$RESULTS/bench_micro_baseline.txt}"
current="$RESULTS/bench_micro.txt"

mkdir -p "$RESULTS"
echo "== bench-compare: go test -bench (count=$COUNT, benchtime=$BENCHTIME)"
go test -run '^$' -bench "$BENCHES" -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$current"

# emit PREFIX OUT UNITS [SAVINGS] records one benchmark family of the
# run as a committed JSON artifact: every benchmark whose name starts
# with PREFIX maps to the mean of each go-test unit in UNITS over its
# runs (ns/op -> ns_per_op, MB/s -> mb_per_sec, B/op -> bytes_per_op,
# allocs/op -> allocs_per_op). SAVINGS, a "base,new" pair of benchmark names, adds
# the new one's ns/op saving over the base in percent.
emit() {
	grep -q "^$1" "$current" || return 0
	awk -v prefix="^$1" -v units="$3" -v savings="${4:-}" '
		BEGIN {
			nu = split(units, unit, " ")
			key["ns/op"] = "ns_per_op"; fmt["ns/op"] = "%.0f"
			key["MB/s"] = "mb_per_sec"; fmt["MB/s"] = "%.1f"
			key["B/op"] = "bytes_per_op"; fmt["B/op"] = "%.0f"
			key["allocs/op"] = "allocs_per_op"; fmt["allocs/op"] = "%.0f"
		}
		$1 ~ prefix && $4 == "ns/op" {
			name = $1; sub(/-[0-9]+$/, "", name)
			if (!(name in cnt)) order[++k] = name
			cnt[name]++
			for (f = 3; f < NF; f += 2) sum[name, $(f + 1)] += $f
		}
		END {
			printf "{\n"
			for (i = 1; i <= k; i++) {
				name = order[i]
				printf "  \"%s\": {", name
				for (u = 1; u <= nu; u++)
					printf "%s\"%s\": " fmt[unit[u]], (u > 1 ? ", " : ""), key[unit[u]], sum[name, unit[u]] / cnt[name]
				printf "}%s\n", (i < k || savings != "" ? "," : "")
			}
			if (savings != "") {
				split(savings, pair, ",")
				b = sum[pair[1], "ns/op"] / cnt[pair[1]]
				n = sum[pair[2], "ns/op"] / cnt[pair[2]]
				printf "  \"dedup_savings_pct\": %.1f\n", (b - n) / b * 100
			}
			printf "}\n"
		}
	' "$current" >"$2"
	echo "== bench-compare: wrote $2"
}

# The committed perf trajectory: BENCH_fused.json (the fused kernel
# against the per-cell reference on a Table-2 grid), BENCH_snap.json
# (the snapshot encode+decode round trip of a warmed 64KB vlp
# predictor), BENCH_engine.json (overlapping plans with and without
# the engine's cell dedup, plus the saving) and BENCH_profile.json (the
# two-step profiling heuristic on one benchmark's profile input).
emit BenchmarkFusedSweep/ BENCH_fused.json "ns/op allocs/op"
emit BenchmarkSnapshotRoundtrip BENCH_snap.json "ns/op MB/s allocs/op"
emit BenchmarkEngineDedup/ BENCH_engine.json "ns/op allocs/op" \
	"BenchmarkEngineDedup/nodedup,BenchmarkEngineDedup/dedup"
emit BenchmarkProfilingPipeline BENCH_profile.json "ns/op B/op allocs/op"

if [ ! -f "$baseline" ]; then
	cp "$current" "$baseline"
	echo "== bench-compare: no baseline found; recorded this run as $baseline"
	exit 0
fi

if command -v benchstat >/dev/null 2>&1; then
	echo "== bench-compare: benchstat $baseline $current"
	benchstat "$baseline" "$current"
else
	echo "== bench-compare: benchstat not installed; mean ns/op deltas"
	awk '
		FNR == 1 { file++ }
		$1 ~ /^Benchmark/ && $4 == "ns/op" {
			name = $1; v = $3
			if (file == 1) { osum[name] += v; on[name]++ }
			else           { nsum[name] += v; nn[name]++ }
		}
		END {
			for (name in nsum) {
				n = nsum[name] / nn[name]
				if (on[name] > 0) {
					o = osum[name] / on[name]
					printf "%-50s %14.2f %14.2f %+8.1f%%\n", name, o, n, (n - o) / o * 100
				} else {
					printf "%-50s %14s %14.2f %9s\n", name, "-", n, "new"
				}
			}
		}
	' "$baseline" "$current" | sort
fi
