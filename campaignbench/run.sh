#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it from the root of
# the checkout:
#
#   bash campaignbench/run.sh --workload explore-dense --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, journal
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/work"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$here" && go build -o "$out/campaignbench" .) >&2
exec "$out/campaignbench" -workdir "$out/work" "$@"
