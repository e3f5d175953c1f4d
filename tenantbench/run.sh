#!/usr/bin/env bash
# Builds tenantbench from the checkout's sources and runs it with the
# given arguments. Every file the build and the run write stays in the
# build directory ($CARGO_TARGET_DIR, default .bench_build) under the
# directory this is started from, which must be the repository root.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/tmp" "$build/home"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/tenantbench" && go build -o "$build/tenantbench" .)
exec "$build/tenantbench" --trace-dir "$build/traces" "$@"
