GO ?= go
# Packages with real concurrency (goroutine tokens, shared fabrics, rings)
# get a second pass under the race detector.
RACE_PKGS = ./internal/wire/... ./internal/transport/... ./internal/dist/... ./internal/chord/... ./internal/core/... ./internal/tree/... ./internal/cutnet/... ./internal/obs/... ./internal/match/... ./internal/launch/... .

.PHONY: check fmt vet build test multicore distalone benchtest race bench benchsmoke perfsmoke tracesmoke partsmoke fuzzsmoke examplesmoke

check: fmt vet build test multicore distalone benchtest race benchsmoke perfsmoke tracesmoke partsmoke fuzzsmoke examplesmoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# core's warm token path is lock-free (memo loads, a CAS per component) and
# chord's lookup cache sits under it: such code is only exercised when its
# goroutines really run on more than one P, so these two packages are run
# again at GOMAXPROCS 1, 2 and 4, twice each — and with them tree, whose
# chain walks every structural operation and cold hop of core now goes
# through, cutnet, whose Inject is a CAS walk through tree's route table,
# component, whose CAS word is the one line a warm token shares per hop (its
# contended/private step probes, BenchmarkTryStep*, run there too), and the
# transport fabrics and launch's in-process workers, whose reader, dedup and
# handler goroutines serve many callers at once. Those two run one package
# at a time: launch's workers keep transport's default 2 ms reply timeout,
# and beside tcpnet's socket tests on a 2-CPU host a group arrive can run
# out of retries (ROADMAP item 1(e)).
multicore:
	$(GO) test -count=2 -cpu 1,2,4 ./internal/core/ ./internal/chord/ ./internal/tree/ ./internal/cutnet/ ./internal/component/
	$(GO) test -count=2 -cpu 1,2,4 -p 1 ./internal/transport/... ./internal/launch/
	$(GO) test -run '^$$' -bench TryStep -benchtime 1000x -cpu 1,2,4 ./internal/component/

# dist on its own, so that the other packages' tests do not starve it down to
# one CPU and hide a failure: its live splits and merges must count exactly
# under real parallelism. A second pass runs the tests whose tokens a frozen
# or retired component turns away, under -race and five times at each CPU
# count: a batch whose every token was turned away waits for the next
# snapshot, and that wait must not miss a publish.
DIST_TURNED_AWAY = Frozen|Dead|Stale|DuringReconfig|UnderFaulty
distalone:
	$(GO) test -count=2 -cpu 1,2,4 ./internal/dist/
	$(GO) test -race -count=5 -cpu 1,2,4 -run '$(DIST_TURNED_AWAY)' ./internal/dist/

# The benchmark (acnload) is a Go module of its own under benchmark/, so
# `go test ./...` at the root does not reach its tests.
benchtest:
	cd benchmark && $(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# One iteration of every benchmark in the repo: catches benchmarks that no
# longer compile or crash without paying for real measurement runs.
benchsmoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The hot-path benchmarks one iteration each UNDER THE RACE DETECTOR:
# b.RunParallel and the batch/pooled paths race real goroutines, so this
# catches data races the correctness tests' schedules might miss. ColdWarmup
# is the cold token path (entry search, chain walk, neighbor records) right
# after a convergence; TokenFullyExpanded is cutnet's route-table walk.
perfsmoke:
	$(GO) test -race -bench 'ColdWarmup|TokenFullyExpanded|TokenAdaptive$$|TokenAdaptiveParallel|TokenAdaptiveBatch|TokenDist|TokenDistBatch$$|TokenDistTCPBatch$$|TokenDistTCPCallers|TransportDedupParallel|ChordLookupCached|WireCodec' -benchtime 1x -run '^$$' .

# End-to-end trace export: a small sim writes sampled spans as Perfetto
# trace-event JSON, and the validator re-parses the file and checks its
# structural invariants. Catches exporter drift the unit tests can't (the
# actual CLI path, on actual span data).
tracesmoke:
	@tmp="$$(mktemp /tmp/acn-trace-XXXXXX.json)"; \
	$(GO) run ./cmd/acnsim -width 64 -nodes 16 -tokens 200 -trace 8 -tracefile "$$tmp" > /dev/null && \
	$(GO) run ./cmd/acnbench -validatetrace "$$tmp" && rm -f "$$tmp"

# End-to-end multi-process run: the acnnode coordinator spawns two worker
# processes on loopback, injects a burst across them, and exits nonzero
# unless the global count conserves, the summed outputs keep the step
# property, and at least one trace stitched across the two processes; the
# merged Perfetto export is then re-validated through the CLI. This is
# the only gate that exercises real process isolation — separate dedup
# ID spaces, readiness handshakes, the ctl protocol over real sockets.
# It runs twice: bursts of 128 tokens, then bursts of one, where each token's
# chain of co-located steps stops at a real process boundary and its batch
# sends it across.
partsmoke:
	@for burst in 128 1; do \
		tmp="$$(mktemp /tmp/acn-part-XXXXXX.json)"; \
		$(GO) run ./cmd/acnnode -coord -width 16 -level 2 -parts 2 -tokens 1024 -burst $$burst -traceevery 4 -tracefile "$$tmp" && \
		$(GO) run ./cmd/acnbench -validatetrace "$$tmp" && rm -f "$$tmp" || exit 1; \
	done

# Every internal/wire fuzz target fuzzed for 2 s, one after another (go test
# fuzzes one target per run). `test` only replays their seed corpora; this
# mutates past them, through the frame decoders a connection reader calls.
fuzzsmoke:
	@for f in $$($(GO) test -list '^Fuzz' ./internal/wire/ | grep '^Fuzz'); do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 2s ./internal/wire/ || exit 1; \
	done

# Each examples/ program run to completion, one after another, with a time
# limit: `build` only compiles them, and an example that errors or hangs is
# a broken piece of documentation.
examplesmoke:
	@for e in examples/*/; do \
		timeout 120 $(GO) run "./$$e" > /dev/null || { echo "example $$e failed"; exit 1; }; \
	done
