# Developer entry points. `make check` is the pre-commit gate: static
# analysis plus the race detector over the packages with the most
# cross-goroutine traffic (messenger send path, oplog flushers, OSD
# replication fan-out, scheduler primitives, the COS submit fan-out and
# the device layer it drives concurrently).

GO ?= go

RACE_PKGS = ./internal/messenger/... ./internal/oplog/... ./internal/osd/... ./internal/sched/... ./internal/store/... ./internal/device/... ./internal/readcache/... ./internal/qos/...

.PHONY: check vet test race chaos bench-build bench-msgr bench-oplog bench-cos bench-scale bench-scale-smoke bench-ycsb bench-mixed bench-ycsb-smoke bench-overload bench-overload-smoke bench-scrub bench-scrub-smoke

check: vet race bench-build
	$(GO) test ./...

# The repo benchmark (benchmarks/, BENCHMARK.json) is a module of its own
# that imports rebloc/internal/...; `go build ./...` and `go test ./...`
# here never compile it. Type-check it, tests included, so a change to an
# internal API it uses fails the pre-commit gate instead of the next
# benchmark run. `benchmarks/run.sh test` also runs its tests (~20 s; CI).
bench-build:
	cd benchmarks && GOFLAGS=-mod=mod GOWORK=off $(GO) vet ./...

# Seeded cluster fault-injection matrix (internal/chaos): every scenario
# spins up an in-proc cluster, drives a recorded workload through a fault
# schedule (crashes, torn device writes, dropped/duplicated frames, NVM
# corruption) and checks block-level history invariants. Failures print a
# deterministically reproducing seed:
#   go test ./internal/chaos -run 'TestScenarios/<name>' -chaos.seed=<seed>
chaos:
	$(GO) test -race -count=1 -timeout 600s ./internal/chaos

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo 'vet: not gofmt-clean (run gofmt -w on these):'; echo "$$unformatted"; \
		exit 1; \
	fi
	@# The COS submit path is hot enough that fmt.Sprintf formatting shows
	@# up in profiles; object keys and region names are built by hand.
	@if grep -n 'fmt\.Sprintf' internal/store/cos/*.go | grep -v _test.go; then \
		echo 'vet: fmt.Sprintf is banned in the COS hot path (build keys with strconv/append)'; \
		exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	@# internal/core is too slow to race wholesale; race just the
	@# integrity paths (scrub daemon, read-repair, checksum plumbing).
	$(GO) test -race -count=1 -run 'Scrub|Cksum|ReadRepair|Integrity' ./internal/core/

# Messenger microbenchmarks: pipelined 4 KiB echo at queue depth 1/16/64
# plus the send-path allocation floor (expect ~0 allocs/op).
bench-msgr:
	$(GO) test -bench 'Echo4K|SendPath4K|AppendFramePooled' -benchtime 1s -run XXX ./internal/messenger/ ./internal/wire/

# Oplog microbenchmarks: the append path, one op per commit and an
# AppendBatch of eight (expect 0 allocs/op; 2 and 0.25 persists/op), the
# extent-index lookup, and the coalescing bottom half (expect
# storeops/entry << 1).
bench-oplog:
	$(GO) test -bench 'OplogAppend|OplogLookup|FlushCoalesced' -benchmem -benchtime 1s -run XXX ./internal/oplog/

# Per-core scaling sweep (paper Figure 11's core claim): GOMAXPROCS
# 1->N over 4 KiB random-write and 70/30 mixed benches, with the top-half
# shard count tracking the core count. Results belong in EXPERIMENTS.md.
# Add PPROF=dir to also capture cpu/mutex/block profiles, e.g.
#   make bench-scale PPROF=/tmp/prof && go tool pprof /tmp/prof/mutex.pprof
PPROF ?=
bench-scale:
	$(GO) run ./cmd/rebloc-bench -scale 2 $(if $(PPROF),-bench.pprof $(PPROF)) scale

# CI smoke: the same sweep capped at 2 cores with reduced iterations, so
# the sharded path is built and exercised on every PR without the cost of
# the full sweep.
bench-scale-smoke:
	$(GO) run ./cmd/rebloc-bench -scale 0.2 -cores 2 -osds 2 -image-mb 32 scale

# Read-cache benches (internal/figures rcache.go). bench-ycsb runs YCSB
# A/B/C (zipfian theta 0.99) over proposed+cache / proposed-nocache /
# original; bench-mixed runs the fio-style zipfian sweeps (100% read,
# 70/30, 50/50). Image sizing keeps the zipfian hot set within reach of
# the default per-OSD cache so the read-heavy rows show the cache's
# steady state; results belong in EXPERIMENTS.md.
bench-ycsb:
	$(GO) run ./cmd/rebloc-bench -image-mb 16 -jobs 4 ycsb-cache

bench-mixed:
	$(GO) run ./cmd/rebloc-bench -image-mb 4 -jobs 4 mixed

# CI smoke: one tiny pass over each cache bench so the figures and the
# cache counters stay wired on every PR.
bench-ycsb-smoke:
	$(GO) run ./cmd/rebloc-bench -scale 0.1 -osds 2 -image-mb 8 -jobs 2 ycsb-cache
	$(GO) run ./cmd/rebloc-bench -scale 0.1 -osds 2 -image-mb 8 -jobs 2 mixed

# Backpressure/QoS bench (internal/figures overload.go): N greedy
# tenants drive the cluster past saturation while one latency-sensitive
# tenant issues a trickle, QoS off vs on. With QoS on the occupancy
# ladder plus token-bucket admission must hold wrap stalls at zero while
# the weighted-fair bucket protects the light tenant's latency. Results
# belong in EXPERIMENTS.md.
bench-overload:
	$(GO) run ./cmd/rebloc-bench -jobs 3 -qd 8 -image-mb 24 overload

# CI smoke: a short pass so the admission ladder, the per-tenant
# accounting and the QoS-on/off comparison stay wired on every PR.
bench-overload-smoke:
	$(GO) run ./cmd/rebloc-bench -scale 0.15 -osds 2 -jobs 2 -qd 4 -image-mb 8 overload

# Data-integrity bench (internal/figures scrub.go): a 4 KiB 70/30
# zipfian workload with the scrub machinery idle vs full deep scrubs
# sweeping concurrently. The deep rows must complete whole-cluster
# passes inside the window while the foreground tail holds — scrub I/O
# is paced by its own token bucket. Results belong in EXPERIMENTS.md.
bench-scrub:
	$(GO) run ./cmd/rebloc-bench -image-mb 16 -jobs 4 scrub

# CI smoke: a short pass so the scrub pacing, the verified read path and
# the integrity counters stay wired on every PR.
bench-scrub-smoke:
	$(GO) run ./cmd/rebloc-bench -scale 0.15 -osds 2 -jobs 2 -image-mb 8 scrub

# COS submit-path microbenchmarks: serial per-op Submit vs one batched
# Submit per 128 ops across 1..16 partitions, plus prealloc and NVM
# metadata-cache variants. Watch dev-writes/op: batched submits collapse
# the data into one vectored submission per partition and persist each
# touched onode once.
bench-cos:
	$(GO) test -bench 'BenchmarkSubmit' -benchtime 1s -run XXX ./internal/store/cos/
