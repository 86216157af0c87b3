#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload trap-storm --seed 1 --seconds 40 --trace 0
# Everything it writes (Go build cache, binary, spans, profiles) stays
# under .bench_build/ in the current directory. It fails, printing no
# result, when the directory is not a govfm checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
# The go command's caches and its telemetry (under the user config dir)
# are redirected here too; GOPROXY=off keeps it offline.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
