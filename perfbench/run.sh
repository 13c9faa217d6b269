#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pr-100k --seed 1 --seconds 20 --trace 0
#
# Run from the root of a kpa checkout. Everything the build writes (binary,
# Go build cache, Go config) stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a kpa checkout (go.mod, internal/ and perfbench/ required)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
