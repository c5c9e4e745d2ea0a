#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it, with
# every build output under .bench_build at the checkout root.
#
#   bash simbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's caches, temporary files and telemetry stay in $out, for
# the build and for the go tool pprof that traced runs call.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$root/simbench" build -o "$out/simbench" . >&2
exec "$out/simbench" "$@"
