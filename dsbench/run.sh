#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash dsbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, sockets, span files) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
if [[ ! -f "$root/dsbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "dsbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off \
	TMPDIR="$out/gotmp"
(cd "$root/dsbench" && go build -o "$out/dsbench" .) >&2
exec "$out/dsbench" "$@"
