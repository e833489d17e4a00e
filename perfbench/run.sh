#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload svc-mem --seed 1 --seconds 25 --trace 0
#
# Run from the root of a checkout. Everything the build and the runs
# leave behind (Go build cache, binary, journals, spans, per-run state)
# stays under .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
state="$root/.bench_build/perfbench"
mkdir -p "$state/tmp" "$state/config"

export GOCACHE="$state/gocache"
export GOMODCACHE="$state/gomod"
export GOPATH="$state/gopath"
export XDG_CONFIG_HOME="$state/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=
export TMPDIR="$state/tmp"

# The harness is a module of its own; it builds against the checkout's
# module through the replace directive in perfbench/go.mod, so it fails
# to build (and no result is printed) when the sources are absent.
if ! go -C "$root/perfbench" build -o "$state/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$state/perfbench" --state "$state" "$@"
