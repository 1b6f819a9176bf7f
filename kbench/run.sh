#!/usr/bin/env bash
# Builds the benchmark and the kanon-router binary it drives, then runs
# it. Run from the repository root:
#
#   bash kbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (CARGO_TARGET_DIR names it when set).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
(cd "$root/kbench" && go build -o "$out/kbench" .)
go build -o "$out/kanon-router" ./cmd/kanon-router
exec "$out/kbench" -router-bin "$out/kanon-router" -work-dir "$out/kbench-work" "$@"
