#!/bin/sh
# Builds the benchmark and cmd/misd from this checkout's sources into
# .bench_build/ and runs the benchmark; arguments pass through:
#
#   sh perfbench/run.sh --workload svc-miss --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the toolchain's user configuration live under .bench_build/ too,
# so a run writes nowhere else, and the toolchain never reaches for the
# network. Both programs are pure Go: building without cgo needs no C
# compiler, whose temporary files would land outside the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
GOCACHE="$out/gocache"
GOTMPDIR="$out/tmp"
TMPDIR="$out/tmp"
XDG_CONFIG_HOME="$out/config"
GOPATH="$out/gopath"
GOTOOLCHAIN=local
GOPROXY=off
GOFLAGS=-buildvcs=false
CGO_ENABLED=0
export GOCACHE GOTMPDIR TMPDIR XDG_CONFIG_HOME GOPATH GOTOOLCHAIN GOPROXY GOFLAGS CGO_ENABLED
go build -C perfbench -o "$out/perfbench" . >&2
go build -o "$out/misd" ./cmd/misd >&2
exec "$out/perfbench" --root "$root" --misd "$out/misd" "$@"
