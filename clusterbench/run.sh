#!/usr/bin/env bash
# Builds tpserve and the clusterbench generator from this checkout, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash clusterbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache. The spans of the latest traced
# run are kept there; fleet logs and checkpoint stores are removed.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/tpserve || ! -f clusterbench/go.mod ]]; then
	echo "clusterbench: run from the repository root (no go.mod or cmd/tpserve here)" >&2
	exit 2
fi
out="$root/.bench_build/clusterbench"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/bin/tpserve" ./cmd/tpserve
(cd clusterbench && go build -o "$out/bin/clusterbench" .)
rm -rf "$out/run"
mkdir -p "$out/run"
status=0
"$out/bin/clusterbench" -tpserve "$out/bin/tpserve" -workdir "$out/run" "$@" || status=$?
find "$out/run" -mindepth 1 -maxdepth 1 -type d -exec rm -rf {} +
exit "$status"
