#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#	bash e2ebench/run.sh --workload pages --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, span files) stays
# under .bench_build/ in the current directory. The build is offline: it
# uses the local toolchain and no module proxy.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
