#!/usr/bin/env bash
# Builds the GoMP benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload <table1|tasks|serving|gompcc> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build in the
# checkout root: the Go build cache, the binary and the workloads' scratch
# files. The last line of standard output is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no GoMP module at $root (go.mod missing)" >&2
	exit 2
fi

mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" --workdir "$build" "$@"
