#!/usr/bin/env bash
# Builds the ledger harness and the shipped RASED binaries from the checkout
# this script lives in, then runs one measurement:
#
#   bash ledger/run.sh --workload history --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the checkout root: the Go build cache, the binaries, the deployments, and
# the result and span files. Build output goes to stderr, so the last line on
# stdout is the harness's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$root"
go build -o "$out/bin/" ./cmd/rased-server ./cmd/rased-ingest >&2
(cd "$root/ledger" && go build -o "$out/bin/ledger" .) >&2
exec "$out/bin/ledger" -root "$root" "$@"
