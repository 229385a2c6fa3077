#!/bin/sh
# ci.sh — the repository's verification gate: `make check`, one target at a
# time with a heading before each, so the two gates cannot drift — the
# package lists, skip lists and benchmark regexes live in the Makefile only.
#
# Perf comparisons between commits are not a gate here: run acnload
# (benchmark/README.md) on both checkouts, alternated.
set -eu
cd "$(dirname "$0")"

step() {
    echo "== $1 =="
    make --no-print-directory "$2"
}

step "gofmt" fmt
step "go vet" vet
step "go build" build
step "go test" test
step "go test -cpu 1,2,4 (lock-free packages)" multicore
step "go test -cpu 1,2,4 (dist alone, minus ROADMAP item 1's known-flaky tests)" distalone
step "go test (benchmark module)" benchtest
step "go test -race (concurrent packages)" race
step "benchmark smoke (1 iteration each)" benchsmoke
step "perf smoke (hot-path benchmarks under -race)" perfsmoke
step "trace smoke (Perfetto export through the CLI, then validate)" tracesmoke
step "partition smoke (2-process acnnode runs, group then seq: conservation + merged trace)" partsmoke
step "fuzz smoke (every internal/wire fuzz target, 2 s each)" fuzzsmoke

echo "OK"
