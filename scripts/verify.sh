#!/bin/sh
# verify.sh — the checks every PR must pass: vet, the kpavet contract
# suite (all fourteen analyzers, including the interprocedural ctxflow /
# goleak / errkind concurrency contracts and the shardsafe / gatebal /
# atomicstate / cancelpoll parallelism contracts), then the full test
# suite under the race detector. kpavet rejects the code shapes that break the
# repo's invariants (docs/LINTING.md); the -race run then validates the
# pooling and cancellation contracts dynamically (internal/service's
# concurrency tests hammer shared services from dozens of goroutines).
set -eux

cd "$(dirname "$0")/.."

go vet ./...
make lint-fix-check
go run ./cmd/kpavet ./...
# The parallelism-contract subset by itself: the -run fast path must
# stay wired up and clean on the engine it was written for.
go run ./cmd/kpavet -run shardsafe,gatebal,atomicstate,cancelpoll ./...
# The analyzer fixture modules are real Go modules the main build never
# compiles: keep them gofmt-clean and vet-clean so fixture rot can't
# hide behind the want-comment matcher. vet's unreachable check is off:
# ratmut's fixtures use dead code on purpose to exercise the CFG walk.
for mod in internal/analysis/*/testdata; do
	[ -f "$mod/go.mod" ] || continue
	test -z "$(gofmt -l "$mod")"
	(cd "$mod" && go vet -unreachable=false ./...)
done
go build ./...
# The chaos suite first, as its own named gate: fault injection against
# the serving stack must hold its containment invariants before the full
# suite runs (docs/RESILIENCE.md), and the search engine must survive
# kill-and-resume with an unchanged answer (docs/SEARCH.md).
make chaos
# The strategy-search differential gate: branch and bound must agree with
# brute-force enumeration — value and witness — on ≥50 generated systems,
# with ≥4 workers under the race detector (docs/SEARCH.md).
go test -race -run TestDifferentialAgainstBruteForce -count=1 ./internal/search
go test -race ./...
# The benchmark's own module: vet it and run its short tests, which include
# a smoke run of every workload but knowledge-1m's 10^6-point one and check
# each against logic.ReferenceEvaluator (perfbench/doc.go).
(cd perfbench && go vet . && go test -short -count=1 .)
# Smoke the benchmark trajectory: one iteration each, so a broken or
# bit-rotted benchmark fails verification without paying for a full run.
go test -run '^$' -bench . -benchtime 1x ./...
# The scale-tier benchmarks are env-gated (they skip without KPA_SCALE_TIER),
# so smoke the smallest tier explicitly, one iteration, budget 2.
KPA_SCALE_TIER=100k KPA_SCALE_WORKERS=2 go test -run '^$' -bench 'Scale' -benchtime 1x ./internal/logic
# The snapshot round-trip, named as its own gate: encode → disk → decode →
# byte-identical warm answers must hold before a release, independent of
# whatever subset the full -race run happened to exercise above.
go test -race -count=1 -run 'Snapshot|Restore|WarmRestart' ./internal/snapshot ./internal/service ./cmd/kpad
# Smoke the warm-restart load benchmark: one tiny cold/warm cycle against
# a real kpad (floor off — the 5x gate only means something on the scale
# tiers; `make loadtest` runs the real thing).
KPA_LOAD_SYSTEM=introcoin KPA_LOAD_PROPS=heads KPA_LOAD_REQUESTS=25 \
	KPA_LOAD_CONCURRENCY=2 KPA_LOAD_FLOOR=0 \
	BENCH_OUT="$(mktemp)" ./scripts/load_bench.sh
