GO ?= go

# BENCHTIME bounds each benchmark iteration window; raise it (e.g. 1s)
# for publication-quality numbers.
BENCHTIME ?= 100ms

.PHONY: ci vet build test race bench bench-json perf-gate cover loc series-demo chaos fuzz-smoke megascale-smoke net-smoke live-chaos

# ci is the full verification gate: static analysis, a clean build of
# every package, the test suite under the race detector, the chaos
# suite, fuzz smokes of the schedule parser, the XOR ground-truth trie
# and the real-socket wire codec, an end-to-end smoke of the probe
# plane (record → sample → series), a mid-size sharded-kernel run of
# all three compact overlays under race, a live multi-process cluster
# smoke over localhost UDP, the live chaos campaign (sim-vs-live
# conformance plus schedule-driven fault injection against real
# clusters), and the perf gate (fails on >15% ns/op or allocs/op
# regression against the baseline snapshot). The coverage summary and
# the line count run afterwards as non-fatal reporting steps.
ci: vet build race chaos fuzz-smoke series-demo megascale-smoke net-smoke live-chaos perf-gate
	-$(MAKE) cover
	-$(MAKE) loc

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test order within each package, surfacing
# test-order coupling (shared ports, leaked goroutines) early.
race:
	$(GO) test -race -shuffle=on ./...

# bench runs the tier-1 micro-benchmarks with allocation stats, three
# interleaved runs each so variance is visible.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCHTIME) -benchmem -count=3 ./...

# bench-json snapshots the benchmark suite into a stable JSON artifact
# so later PRs can diff ns/op against this one. -count=6 gives the
# averaging in bench-import something to chew on.
BENCH_JSON ?= BENCH_CI.json
bench-json:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCHTIME) -benchmem -count=6 ./... \
		| $(GO) run ./cmd/unapctl bench-import -o $(BENCH_JSON)

# perf-gate is the CI benchmark regression gate: re-measure the suite,
# snapshot it (BENCH_JSON), and fail if any benchmark present in both
# the baseline and the fresh snapshot regressed ns/op or allocs/op by
# more than PERF_THRESHOLD. Benchmarks that exist on only one side are
# reported but never gate.
#
# The baseline was re-anchored at BENCH_PR8.json when the metrics
# planes (CounterSet/Histogram/TrafficMatrix) became race-safe for the
# real-socket transport: the atomic read-modify-writes cost 20–70% on
# the accounting micro-benches (measured on this machine, documented in
# DESIGN.md), a price paid deliberately so live /metrics scraping reads
# consistent values. The megascale 1M-peer paths bypass the metrics
# package entirely and are unaffected.
#
# It moved again to BENCH_PR12.json to lock in the map-free sim path
# (typed kernel heap, dense traffic-matrix index, sorted-slice Gnutella
# connection sets): against BENCH_PR8.json, Tab1GnutellaMessages and
# IntraASExchange run 30% and 51% faster (min ns/op), although this
# snapshot's host ran the untouched benchmarks 15–60% slower.
#
# It moved to BENCH_PR13.json when the live plane's micro-benchmarks
# (BenchmarkLive*: ClosestXor, the peer and frame codecs, a loopback
# Net.Call, one Kademlia lookup on a 16-node in-process cluster) joined
# the suite, so they gate from then on. The two socket benchmarks read
# only as steady as loopback UDP on the host (see CHANGES.md).
BENCH_BASELINE ?= BENCH_PR13.json
PERF_THRESHOLD ?= 0.15
perf-gate:
	$(MAKE) bench-json
	$(GO) run ./cmd/unapctl bench-diff -threshold $(PERF_THRESHOLD) $(BENCH_BASELINE) $(BENCH_JSON)

# cover writes a merged coverage profile and prints the total statement
# coverage.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# loc prints the non-test Go lines of every package in the module and
# their total — the size figure a simplification should shrink.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline line < $$i) > 0) n++; close($$i) } \
			printf "%7d %s\n", n, $$1; total += n } END { printf "%7d total\n", total }'

# chaos runs the self-healing suite: every overlay under the standard
# seeded fault campaign (loss burst + crash wave) with a live failure
# detector, three pinned seeds each run twice, asserting invariants and
# byte-identical run files — race-enabled, since detector, injector,
# and overlay repair all share the kernel.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/integration/

# fuzz-smoke gives the fuzz targets a short budget each — enough to
# catch regressions in CI without the open-ended runtime of a real
# fuzzing campaign: the chaos schedule parser, the binary-trie XOR
# ground truth every megascale exactness figure rests on (cross-checked
# against a naive scan), the nettransport wire codec (arbitrary
# datagrams must never panic the receive loop), and the address-book
# peer codec (a lying entry count must never drive the allocator;
# decode → merge → encode is a fixpoint).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseSchedule -fuzztime=10s ./internal/chaos/
	$(GO) test -run='^$$' -fuzz=FuzzClosestGlobal -fuzztime=10s ./internal/megascale/
	$(GO) test -run='^$$' -fuzz=FuzzWireCodec -fuzztime=10s ./internal/nettransport/
	$(GO) test -run='^$$' -fuzz=FuzzDecodePeers -fuzztime=10s ./internal/nettransport/

# net-smoke boots a real multi-process cluster per overlay: 5 unapnode
# OS processes on localhost UDP ports, joined through a bootstrap, each
# running 100 verified lookups against the deterministic NodeKey ground
# truth with a 95% success floor, then shut down with SIGTERM. This is
# the live counterpart of megascale-smoke: same overlays, real sockets.
NETSMOKE_NODES ?= 5
NETSMOKE_LOOKUPS ?= 100
net-smoke:
	UNAP_NETSMOKE_OVERLAYS=kademlia,chord,gnutella \
	UNAP_NETSMOKE_NODES=$(NETSMOKE_NODES) \
	UNAP_NETSMOKE_LOOKUPS=$(NETSMOKE_LOOKUPS) \
		$(GO) test -race -count=1 -run 'TestNetSmoke' -v ./internal/integration/

# live-chaos runs the deterministic chaos schedules against real
# clusters, in three tiers: (1) the in-process campaign — one cluster
# per overlay takes a loss-burst + crash-wave schedule under the race
# detector, must evict exactly the killed nodes and reconverge to the
# ≥95% verified-lookup floor, plus the revive-rejoin and
# detector-recant-under-loss cases; (2) the sim-vs-live conformance
# test — the same schedule shape under chaos.Injector (sim kernel) and
# chaos.LiveInjector (wall clock, sockets), both held to the same
# invariant floor; (3) the OS-process tier — unapnode daemons with
# -chaos flags, SIGKILL crash waves, eviction exactness verified
# through each survivor's /metrics, SIGTERM-clean shutdown.
NETCHAOS_NODES ?= 6
NETCHAOS_LOOKUPS ?= 25
live-chaos:
	$(GO) test -race -count=1 -run 'TestLiveChaosCampaign|TestLiveReviveRejoins|TestDetectorRecantsUnderLiveLoss' -v ./internal/livenode/
	$(GO) test -race -count=1 -run 'TestSimLiveConformance' -v ./internal/integration/
	UNAP_NETCHAOS_OVERLAYS=kademlia,chord,gnutella \
	UNAP_NETCHAOS_NODES=$(NETCHAOS_NODES) \
	UNAP_NETCHAOS_LOOKUPS=$(NETCHAOS_LOOKUPS) \
		$(GO) test -count=1 -run 'TestNetChaos' -v ./internal/integration/

# megascale-smoke runs the sharded kernel at CI-sized scale — ~50k
# peers with churn, all three compact overlays (kademlia, chord,
# gnutella) at K=1 and K=4, under the race detector. Catches
# shard-ownership violations that the small unit tests are too sparse
# to provoke. MEGASMOKE_PEERS scales it up (the full 1M-peer study is
# `unapctl record -exp exp-megascale -param peers=1000000 -param overlay=all`).
MEGASMOKE_PEERS ?= 50000
megascale-smoke:
	UNAP_MEGASMOKE_PEERS=$(MEGASMOKE_PEERS) \
		$(GO) test -race -run 'TestMegascaleSmoke' -v ./internal/integration/

# series-demo exercises the whole probe pipeline end to end: record a
# Gnutella experiment with a 50 ms sim-time probe, then render its
# convergence curves as sparklines. A smoke test for record → sample →
# series, and the quickest way to see what the probe plane produces.
SERIES_RUN ?= /tmp/unap2p-series-demo.jsonl
series-demo:
	$(GO) run ./cmd/unapctl record -exp exp-intra-as -scale 0.5 -probe 50 -o $(SERIES_RUN)
	$(GO) run ./cmd/unapctl series -metric 'health:*' $(SERIES_RUN)
