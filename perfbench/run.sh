#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root,
# passing every argument through:
#
#   bash perfbench/run.sh --workload fig5_graph --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and toolchain config all live under
# .bench_build/perfbench, so a run reads and writes only inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
