GO ?= go

.PHONY: check build vet fmt test race bench benchcheck benchfast benchjson fuzzsmoke crosssmoke cmdguard readguard staticcheck

## check: the extended tier-1 gate — everything a PR must keep green.
check: fmt vet build race bench benchcheck fuzzsmoke crosssmoke cmdguard readguard

## cmdguard: no binary under cmd/ carries a test — none links the test
## framework, and no daemon regrows a smoke flag (scenarios live in
## `go test`; ssbench's -quick shortens simulations and is not one).
cmdguard:
	@! $(GO) list -deps ./cmd/... | grep -qx testing || { echo "a cmd/ binary links the testing package"; exit 1; }
	@! grep -rnE '"(quick|obssmoke|transport-smoke)"' cmd --include='*.go' --exclude-dir=ssbench

## readguard: every endpoint reads its conn through the one read loop,
## netio.Serve — no program file outside internal/netio (the loop) and
## internal/transport (the conns) calls ReadFrom or ReadBatch, so no
## endpoint regrows a loop of its own.
readguard:
	@! grep -rnE '\.Read(From|Batch)\(' internal cmd examples --include='*.go' --exclude='*_test.go' \
		--exclude-dir=netio --exclude-dir=transport || { echo "a read loop outside internal/netio"; exit 1; }

## benchcheck: the repo's benchmark (BENCHMARK.json, bench/) is a
## module of its own that `./...` does not reach: format, vet and test
## it (a toy-scale smoke of all six workloads, ~12 s).
benchcheck:
	test -z "$$(gofmt -l bench)"
	$(GO) vet -C bench .
	$(GO) test -C bench .

## crosssmoke: cross-compile gate for the non-Linux fallbacks (the
## batched-syscall layer is Linux-only and must stub cleanly).
crosssmoke:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...

## staticcheck: run honnef.co/go/tools if the binary is on PATH
## (CI installs it; locally this is a no-op with a hint).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

## fuzzsmoke: short coverage-guided runs of the fuzz targets:
## AppendEncode byte-identical to Encode across the header scope field
## and every message type, a long-lived Decoder agreeing with a fresh
## one, the incremental digest tree agreeing with one rebuilt from a
## reference map after every Put and Delete, and the record packer
## returning every record in order within the MTU.
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzAppendEncode -fuzztime=10s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzDecoderReuse -fuzztime=5s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzTreeOps -fuzztime=5s ./internal/namespace
	$(GO) test -run='^$$' -fuzz=FuzzPack -fuzztime=5s ./internal/protocol

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
## heap, live sender path, in-process datagram round trip) with
## -benchmem.
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
	$(GO) test -run=^$$ -benchmem -benchtime=200ms \
		-bench='MemConnRoundTrip' ./internal/transport/

## benchjson: regenerate BENCH_ssbench.json, the paper-figure record
## (per-experiment wall time + headline-metric trajectory; format in
## EXPERIMENTS.md). The live stack's numbers come from bench/
## (BENCHMARK.json, bench/README.md), not from a checked-in file.
benchjson:
	$(GO) run ./cmd/ssbench -quick -all -json > BENCH_ssbench.json
