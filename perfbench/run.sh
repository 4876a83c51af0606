#!/usr/bin/env bash
# Builds the pskyline server and the perfbench harness from source, then runs
# the harness with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload sync-stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory (Go build cache, binaries, WAL directories, trace files).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/pskyline ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/pskyline and perfbench/ must exist)" >&2
	exit 2
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"
# TMPDIR and XDG_CONFIG_HOME keep temporary files and the go command's
# telemetry counters in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$out/bin/pskyline" ./cmd/pskyline >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

commit=unknown
if command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/bin/perfbench" -server "$out/bin/pskyline" -workdir "$out" -commit "$commit" "$@"
