# Repository CI entry points. `make check` runs ci.sh, the one
# definition of the gate; the individual targets exist so a developer
# can run one stage alone.
GO ?= go
RESULTS ?= results

.PHONY: all check fmt vet build test bench-smoke bench-compare serve-smoke dist-smoke chaos-smoke snap-smoke clean clean-smoke

all: check

check:
	RESULTS=$(RESULTS) ./ci.sh

# Fail if any file needs reformatting (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# A one-iteration benchmark pass that must emit valid repro-bench/v1
# reports: BENCH_JSON_DIR routes each artifact benchmark's measured
# report to $(RESULTS)/bench_<id>.json, and obscheck validates them.
bench-smoke:
	BENCH_JSON_DIR=$(RESULTS) $(GO) test -run '^$$' -bench 'BenchmarkHeadline|BenchmarkTable2' -benchtime 1x .
	$(GO) run ./cmd/obscheck -dir $(RESULTS)

# End-to-end check of the prediction service: vlpserve on a random
# port, vlpload replay, served rate byte-identical to batch vlpsim,
# /v1/metrics schema-valid, clean drain on SIGTERM.
serve-smoke:
	RESULTS=$(RESULTS) ./scripts/serve_smoke.sh

# End-to-end check of distributed sweep execution: two vlpserve
# workers, vlpsweep across them, merged artifacts byte-identical to an
# in-process paperrepro run, bench JSONs schema-valid, clean drain.
dist-smoke:
	RESULTS=$(RESULTS) ./scripts/dist_smoke.sh

# Chaos acceptance gate: a sweep under aggressive seeded fault
# injection (client and server side) still merges artifacts
# byte-identical to a clean in-process run, and the same seed replays
# the same injected-fault schedule.
chaos-smoke:
	RESULTS=$(RESULTS) ./scripts/chaos_smoke.sh

# Crash-recovery gate for session hibernation: kill -9 vlpserve
# mid-stream, restart on the same -spill-dir, and the resumed session's
# final rate is byte-identical to an uninterrupted batch run.
snap-smoke:
	RESULTS=$(RESULTS) ./scripts/snap_smoke.sh

# Run the hot-path micro-benchmarks (-count=5) and diff against the
# recorded baseline: benchstat when installed, plain mean deltas
# otherwise. The first run on a machine seeds the baseline file.
bench-compare:
	RESULTS=$(RESULTS) ./scripts/bench_compare.sh

# Remove smoke-run scratch alone. The smoke scripts clean up after
# themselves on exit; this sweeps up after KEEP=1 runs or killed ones.
clean-smoke:
	rm -rf $(RESULTS)/serve_smoke_* $(RESULTS)/dist_smoke_* $(RESULTS)/chaos_smoke_* $(RESULTS)/snap_smoke_*
	rm -f $(RESULTS)/bench_serve_smoke_*.json $(RESULTS)/bench_snap_smoke_*.json

clean: clean-smoke
	rm -f $(RESULTS)/bench_*.json $(RESULTS)/bench_micro*.txt
