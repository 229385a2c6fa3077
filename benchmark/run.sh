#!/usr/bin/env bash
# Builds acnload from source into .bench_build/ at the root of the checkout
# and runs it with the given arguments. The Go build cache, the toolchain's
# temporary files and its config directory are kept there too, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/acnload" .)
exec "$build/acnload" "$@"
