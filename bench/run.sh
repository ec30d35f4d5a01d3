#!/usr/bin/env bash
# BENCHMARK.json's command: build osirisbench from source, then run it with
# the arguments given. Everything the build leaves behind (the binary and
# the Go build cache) goes to .bench_build/ at the root of the checkout, so
# a run reads and writes only inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$here" && go build -o "$out/osirisbench" ./osirisbench)
exec "$out/osirisbench" "$@"
