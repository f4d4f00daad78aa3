#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pf_steady --seed 1 --seconds 28 --trace 0
#
# Run from the repository root. Every build and cache file stays under
# .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export GOTMPDIR="${out}/tmp"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
