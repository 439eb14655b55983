#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root. Every build output (binary, Go build cache and temporary
# files, Go's own configuration and telemetry files) stays under
# .bench_build there.
#
#   bash perfbench/run.sh --workload paper16 --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh compare base.json head.json
#   bash perfbench/run.sh pin --seeds 1-10 > pins.new && mv pins.new perfbench/pins.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
