# Tier-1 verification lives behind one target so every PR runs the
# same gate (see ROADMAP.md). Everything is stdlib Go — no tool deps.

GO ?= go
GOFMT ?= gofmt

.PHONY: verify build test race vet fmt lint-walltime bench-check cover fuzz-smoke bench-profilestore

# verify is the tier-1 gate: vet + gofmt + the walltime lint + build +
# full test suite + the race runs that give the concurrency and
# fault-injection tests their teeth + the fleet benchmark module.
verify: vet fmt lint-walltime build test race bench-check

vet:
	$(GO) vet ./...

# Every Go file in the tree (fleetbench/ included) must be
# gofmt-clean; the gate fails on any file gofmt -l lists.
fmt:
	@found=`$(GOFMT) -l .`; \
	if [ -n "$$found" ]; then \
		echo "fmt: files gofmt would change:"; \
		echo "$$found"; exit 1; \
	fi; echo "fmt: clean"

# The deterministic packages must never read wall clocks: replay and
# the golden traces depend on stream time alone. The one allowlisted
# file is the remaining observability seam: core/tracker.go times the
# DTW match, and only when a match observer is installed. The serving
# layer stamps every other stage boundary. Anything else is a
# determinism regression and fails the gate.
WALLTIME_PKGS = internal/core internal/dtw internal/csi internal/dsp internal/rf internal/scenario internal/cluster
lint-walltime:
	@found=`grep -rn 'time\.Now' $(WALLTIME_PKGS) --include='*.go' \
		| grep -v '_test\.go' \
		| grep -v -e '^internal/core/tracker\.go:' || true`; \
	if [ -n "$$found" ]; then \
		echo "lint-walltime: wall-clock reads in deterministic packages:"; \
		echo "$$found"; exit 1; \
	fi; echo "lint-walltime: clean"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The serving engine's stress/soak tests, the fault injector (now
# including the crash-recovery soak), the metrics registry (scraped
# concurrently with the hot path), the profile store's cold-key
# storms, invalidate-vs-inflight-load races and re-adoption of live
# instances racing eviction, Invalidate and GC, the
# scenario generator's concurrent replay, and the write-behind
# journal's concurrent appenders only mean something under the race
# detector.
race:
	$(GO) test -race ./internal/serve ./internal/faults ./internal/obs ./internal/profilestore ./internal/scenario ./internal/journal ./internal/cluster

# fleetbench/ is its own Go module, so the root ./... never compiles
# it: vet and test it here so an API change that breaks the benchmark
# fails the gate instead of the next benchmark run.
bench-check:
	cd fleetbench && $(GO) vet ./... && $(GO) test ./...

# Per-package statement coverage summary (the README records the
# baseline). Writes the merged profile to COVER.out for drill-down
# with `go tool cover -html=COVER.out`.
cover:
	$(GO) test -coverprofile=COVER.out ./...
	$(GO) tool cover -func=COVER.out | tail -1

# Short open-ended fuzz pass over the adversarial-input surfaces, plus
# the sanitizer's componentwise loop against its scalar reference, the
# pruned DTW subsequence scan (with and without an incumbent) and the
# CSI phasor cache against their from-scratch oracles. -fuzz must
# match exactly one target per run, so the two sanitizer patterns are
# anchored: unanchored, FuzzSanitize would match both.
fuzz-smoke:
	$(GO) test -fuzz=^FuzzSanitize$$ -fuzztime=10s ./internal/csi
	$(GO) test -fuzz=^FuzzSanitizeEquivalence$$ -fuzztime=10s ./internal/csi
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wifi
	$(GO) test -fuzz=FuzzScenarioConfig -fuzztime=10s ./internal/scenario
	$(GO) test -fuzz=FuzzJournalDecode -fuzztime=10s ./internal/journal
	$(GO) test -fuzz=FuzzClusterDecode -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzSubsequenceEquivalence -fuzztime=10s ./internal/dtw
	$(GO) test -fuzz=FuzzPhasorCache -fuzztime=10s ./internal/rf

# Profile-store benchmark: cold disk load, zero-allocation hot hit,
# a 64-goroutine contention run (DESIGN.md §10), and three churn
# traces replayed against one LRU store (DESIGN.md §15).
bench-profilestore:
	$(GO) run ./cmd/vihot-bench -profilejson BENCH_profilestore.json
