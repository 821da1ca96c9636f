#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload mds-collect --seed 1 --seconds 10 --trace 0
# Every build artifact and Go cache stays under .bench_build/ in the
# working directory; the build never touches the network.
set -euo pipefail

root="$PWD"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gomodcache" "${out}/gopath" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomodcache" GOPATH="${out}/gopath"
export GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp" XDG_CONFIG_HOME="${out}/config" XDG_CACHE_HOME="${out}/config"
export GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0 GOENV=off

go -C perfbench build -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"
