#!/usr/bin/env bash
# Builds the moasbench command from this checkout's sources and runs it
# with the given flags (--workload, --seed, --seconds, --trace). Run it
# from the repository root. Everything it builds or writes stays under
# .bench_build/ in that root: the Go build and module caches, the
# binary, generated corpora, daemon state and trace files.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/moasbench" ]; then
	echo "moasbench: run from the repository root (no go.mod or moasbench/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
(cd "$root/moasbench" && go build -o "$out/moasbench" .)
exec "$out/moasbench" "$@"
