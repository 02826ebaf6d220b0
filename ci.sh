#!/bin/sh
# The CI gate: every stage, in order. `make check` runs this script.
set -eu
# Smoke scratch and bench reports go here; the scripts read it too.
RESULTS="${RESULTS:-results}"
export RESULTS

echo "== gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt -l found unformatted files:"
	echo "$out"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== pool lint (worker fan-outs live in internal/engine/pool)"
# The engine's pool is the single bounded worker pool: nothing outside
# internal/engine may size itself off the old sim.PoolSize spelling or
# hand-roll a make(chan int) fan-out. internal/loadgen is allowlisted —
# its client count is part of the load spec (open-loop pacing), not a
# process worker pool — and tests may use index channels freely.
lint_hits="$(grep -rn 'sim\.PoolSize(' --include='*.go' . | grep -v '^\./internal/engine/' || true)"
fanout_hits="$(grep -rn 'make(chan int' --include='*.go' . \
	| grep -v '_test\.go:' \
	| grep -v '^\./internal/engine/' \
	| grep -v '^\./internal/loadgen/' || true)"
if [ -n "$lint_hits" ] || [ -n "$fanout_hits" ]; then
	echo "pool lint: worker pools must go through internal/engine/pool:"
	[ -n "$lint_hits" ] && echo "$lint_hits"
	[ -n "$fanout_hits" ] && echo "$fanout_hits"
	exit 1
fi

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== perfbench vet + tests (its own module: unit tests + a tiny run of every workload)"
(cd perfbench && go vet .)
(cd perfbench && go test -count=1 .)

echo "== committed artifacts (paperrepro at base 1200000 reproduces results/*.txt byte for byte)"
art="$(mktemp -d)"
go run ./cmd/paperrepro -base 1200000 -json "" -out "$art" >/dev/null
for f in "$art"/*.txt; do
	if ! cmp "$f" "results/$(basename "$f")"; then
		echo "artifact $(basename "$f") does not match results/"
		exit 1
	fi
done
for f in results/*.txt; do
	case "$(basename "$f")" in bench_*) continue ;; esac
	if [ ! -f "$art/$(basename "$f")" ]; then
		echo "paperrepro did not write $(basename "$f")"
		exit 1
	fi
done
echo "$(ls "$art"/*.txt | wc -l) artifacts match results/"
rm -rf "$art"

echo "== fuzz smoke (decoder + spec grammars + session requests)"
go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s ./internal/factory
go test -run '^$' -fuzz '^FuzzSessionSpec$' -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz '^FuzzChaosSpec$' -fuzztime 10s ./internal/chaos
go test -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 10s ./internal/snap

echo "== cancellation + fault-tolerance + singleflight under race"
go test -race -count=1 -run 'Cancel|Canceled|Fault|Resume|Timeout|PanicIsolation|Singleflight|SkippedBenchmarkDroppedFromGrids' ./internal/sim ./internal/experiments ./cmd/paperrepro

echo "== service concurrency (hammer + drain) under race"
go test -race -count=1 -run 'Hammer|Saturation|GracefulShutdown' ./internal/serve ./internal/loadgen

echo "== predict window free list under race"
go test -race -count=10 -run '^TestWindowFreeList$' ./internal/serve

echo "== circuit breaker + retry-after edge cases under race"
go test -race -count=1 -run 'Breaker|RetryAfter' ./internal/runx ./internal/dist

echo "== serve smoke (served rates byte-identical to batch)"
./scripts/serve_smoke.sh

echo "== dist smoke (merged sweep artifacts byte-identical to in-process)"
./scripts/dist_smoke.sh

echo "== chaos smoke (byte-identity under seeded faults + exact replay)"
./scripts/chaos_smoke.sh

echo "== snap smoke (kill -9 restart resumes bit-identically)"
./scripts/snap_smoke.sh

echo "== bench smoke (emits $RESULTS/bench_*.json)"
BENCH_JSON_DIR="$RESULTS" go test -run '^$' -bench 'BenchmarkHeadline|BenchmarkTable2' -benchtime 1x .
go run ./cmd/obscheck -dir "$RESULTS"

# Run-only: a fresh checkout has no baseline to compare against, and a
# timing diff cannot gate on a shared machine. `make bench-compare`
# keeps the baseline diff for local use.
echo "== micro-bench smoke (bench-compare subset, one iteration each)"
SMOKE=1 ./scripts/bench_compare.sh

echo "CI OK"
