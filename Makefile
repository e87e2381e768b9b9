GO ?= go

.PHONY: check build vet fmt test race bench benchcheck benchfast benchjson loadsmoke relaysmoke gossipsmoke scalesmoke fuzzsmoke obssmoke fabricsmoke transportsmoke crosssmoke staticcheck

## check: the extended tier-1 gate — everything a PR must keep green.
check: fmt vet build race bench benchcheck loadsmoke relaysmoke gossipsmoke fuzzsmoke obssmoke scalesmoke fabricsmoke transportsmoke crosssmoke

## benchcheck: the repo's benchmark (BENCHMARK.json, bench/) is a
## module of its own that `./...` does not reach: format, vet and test
## it (a toy-scale smoke of all six workloads, ~12 s).
benchcheck:
	test -z "$$(gofmt -l bench)"
	$(GO) vet -C bench .
	$(GO) test -C bench .

## transportsmoke: the pluggable-wire gate — an in-process relay
## bridging a 5%-lossy UDP leg to a framed-TCP leg must converge (the
## repair machinery covering the datagram leg, the stream framing
## preserving datagram boundaries), then a verified-TLS handshake
## smoke with a generated self-signed pair.
transportsmoke:
	$(GO) run ./cmd/ssload -transport-smoke

## fabricsmoke: 64 tenant sessions multiplexed over one shared socket,
## with one 10x-bursty tenant; fails unless every tenant converges
## under fair queueing and the non-bursty tenants' p99 stays within 2x
## of the equal-load baseline (the FIFO comparison phase documents the
## starvation the scheduler removes).
fabricsmoke:
	$(GO) run ./cmd/ssload -sessions 64 -quick

## crosssmoke: cross-compile gate for the non-Linux fallbacks (the
## batched-syscall layer is Linux-only and must stub cleanly).
crosssmoke:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...

## loadsmoke: drive the live stack end-to-end under ssload's quick
## profile; fails unless every receiver's replica converges.
loadsmoke:
	$(GO) run ./cmd/ssload -quick

## scalesmoke: quick striped+batched scaling smoke — a 4-stripe
## coalescing sender converging against a 1-stripe receiver at
## GOMAXPROCS 1 and 2; fails unless every trial reaches digest
## equality (the combined-root identity gate).
scalesmoke:
	GOMAXPROCS=2 $(GO) run ./cmd/ssload -scale -quick

## gossipsmoke: 8-node anti-entropy mesh over a 2%-lossy memconn
## network; fails unless every replica converges to one digest and a
## node killed mid-run re-converges (and is evicted then rejoined by
## the survivors) after restarting empty on the same address.
gossipsmoke:
	$(GO) run ./cmd/ssgossip -quick

## relaysmoke: publisher → relay → 4 leaves over a lossy memconn
## network; fails unless the tree converges, repair stays local, and
## the publisher's Goodbye flushes every hop.
relaysmoke:
	$(GO) run ./cmd/ssrelay -quick

## obssmoke: start an in-process sender + receiver with the admin
## endpoint, scrape /metrics and /stats.json over HTTP, and fail
## unless the consistency section (staleness, t-visibility, E[c(t)])
## is present and non-empty and /trace shows node-stamped lifecycle
## events.
obssmoke:
	$(GO) run ./cmd/sstpd -obssmoke

## staticcheck: run honnef.co/go/tools if the binary is on PATH
## (CI installs it; locally this is a no-op with a hint).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

## fuzzsmoke: a short coverage-guided run of the wire-codec fuzz
## target pinning AppendEncode byte-identical to Encode across the
## header scope field and every message type.
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzAppendEncode -fuzztime=10s ./internal/protocol

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: smoke-run the benchmarks (one iteration each) so they keep
## compiling and running; full numbers come from `go test -bench=.`.
bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

## benchfast: real numbers for the substrate micro-benchmarks only —
## the allocation-sensitive hot paths (event scheduling, namespace
## digests, scheduler picks, channel services, codec, table expiry
## heap, live sender path) with -benchmem.
benchfast:
	$(GO) test -run=^$$ -benchmem -benchtime=200ms \
		-bench='Eventsim|Namespace|Scheduler|Channel|Protocol|EngineEventsPerSec' .
	$(GO) test -run=^$$ -benchmem -benchtime=200ms \
		-bench='Publisher|Subscriber' ./internal/table/
	$(GO) test -run=^$$ -benchmem -benchtime=200ms \
		-bench='SenderNextAnnouncement|SenderEncodeSend' ./internal/sstp/
	$(GO) test -run=^$$ -benchmem -benchtime=200ms \
		-bench='ProtocolBatch|ProtocolDecoder' ./internal/protocol/
	$(GO) test -run=^$$ -benchmem -benchtime=200ms \
		-bench='NamespaceForest' ./internal/namespace/

## benchjson: regenerate BENCH_ssbench.json (per-experiment wall-time
## + headline-metric trajectory), BENCH_ssload.json (live-stack
## load/allocation record), BENCH_ssrelay.json (relay overlay tree
## convergence + per-hop repair latency), BENCH_ssvis.json (a
## visibility-focused tree run: per-hop t-visibility quantiles plus
## the leaves' online consistency snapshot), and BENCH_ssscale.json
## (GOMAXPROCS sweep over the striped/coalescing hot path plus the
## million-record convergence run), and BENCH_ssfabric.json (1024
## tenant sessions over one shared link: per-tenant fair-queueing
## isolation vs the FIFO baseline), and BENCH_sstransport.json (the
## quick profile over udp vs tcp vs tls with identical injected loss:
## t_rec quantiles plus datagrams/bytes per record); formats
## documented in EXPERIMENTS.md.
benchjson:
	$(GO) run ./cmd/ssbench -quick -all -json > BENCH_ssbench.json
	$(GO) run ./cmd/ssload -records 512 -receivers 4 -duration 5s -loss 0.02 -json > BENCH_ssload.json
	$(GO) run ./cmd/ssload -relay-depth 2 -relay-fanout 4 -loss 0.05 -json > BENCH_ssrelay.json
	$(GO) run ./cmd/ssload -relay-depth 2 -relay-fanout 2 -records 256 -duration 8s -loss 0.05 -jitter 5ms -json > BENCH_ssvis.json
	$(GO) run ./cmd/ssload -scale -json > BENCH_ssscale.json
	$(GO) run ./cmd/ssload -sessions 1024 -duration 2s -loss 0.02 -json > BENCH_ssfabric.json
	$(GO) run ./cmd/ssload -transport-compare -json > BENCH_sstransport.json
	$(GO) run ./cmd/ssload -gossip-peers 16 -records 128 -loss 0.02 -churn -json > BENCH_ssgossip.json
