#!/usr/bin/env bash
# Builds the archive benchmark from source and runs it from the root of
# the repository:
#
#   bash archbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, the
# binary, the scratch archive, traced spans) goes under the build
# directory: $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail
root=$PWD
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$bench" && go build -o "$out/archbench" .) >&2
exec "$out/archbench" -work "$out/work" -spans "$out/spans" "$@"
