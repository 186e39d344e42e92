# The same gate CI runs (.github/workflows/ci.yml: the gate job, then the
# race job's full -race sweep); `make check` before sending a PR reproduces
# it locally.

GO ?= go

.PHONY: check build fmt vet lint lint-budget lint-fixtures test test-cpus bench-build race bench bench-layers fuzz-smoke loc

check: build fmt vet lint-budget test test-cpus bench-build fuzz-smoke race

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/sgxlint ./...

# The lint-runtime budget CI enforces: a prebuilt sgxlint must finish the
# whole module inside 60s, so the dataflow analyses stay cheap enough for
# the pre-PR loop.
lint-budget:
	$(GO) build -o sgxlint-bin ./cmd/sgxlint
	timeout 60 ./sgxlint-bin ./...
	@rm -f sgxlint-bin

# Just the sgxlint fixture + CFG golden tests — the fast loop when
# developing a rule or the dataflow engine.
lint-fixtures:
	$(GO) test ./internal/lint/ -run 'Fixture|CFG' -v

# Non-test Go lines outside benchmark/ and testdata/ — the figure ROADMAP's
# simplicity targets and every deletion PR quote — as a total and per
# top-level package of internal/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
		| xargs cat | wc -l | awk '{printf "%6d  total\n", $$1}'
	@for d in internal/*/; do \
		find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l \
			| awk -v d=$$d '{printf "%6d  %s\n", $$1, d}'; \
	done

test:
	$(GO) test ./...

# The checkpoint, leaf, tamper, big-state and recycling tests, the entry
# gate and the dump's quiescence re-check, the frame windows a checkpoint
# crosses the host in, the long run of migrations under busy host loops,
# the teardown that waits out a thread inside, EINIT's SIGSTRUCT check
# (made outside the machine lock, concurrently in its test), and the
# failure paths the ledger checks cover (a refused build, swap-in, owner
# resume or launch, a failed wire or corrupt frame, the transparent
# migration's swap stream), the migration keys' nonces over three
# transparent migrations and the worker table a migrated enclave keeps,
# again under GOMAXPROCS 1 and 2. A checkpoint's
# leaves are sealed, and opened, on GOMAXPROCS goroutines, which write and
# read the window's frames and take and return checkpoint buffers
# concurrently, and the swap stream's batches move between two goroutines,
# so the one-worker path is otherwise only exercised on a one-CPU machine.
test-cpus:
	$(GO) test -cpu 1,2 -run 'Checkpoint|Leaf|Leaves|Nonce|Tamper|BigState|GOMAXPROCS|Bounce|Recycl|Migrating|Quiesc|FrameWindow|SendRecvBulk|LongRun|ResumedCall|Destroy|TestEINIT|Half|TestDHMemo|BuildFailure|Unattested|PreEstablished|EndsItsSpan|ReturnsItsBuffer|ReturnsQueuedBuffers|HostileImage|TestTransparentMigration|TestMigrationKeysNeverRepeatANonce|TestWorkerTableFixedAfterBuild|LaunchProvision' ./internal/enclave ./internal/core ./internal/attack ./internal/tcb ./internal/sgx ./internal/hwext ./internal/hostd

# benchmark/ is a Go module of its own (replace repro => ../), so none of
# the ./... targets above compile it: a change that deletes exported API can
# break the performance spine and still be green. Vet and test it against
# this tree; GOPROXY=off because the replace directive is all it needs.
bench-build:
	cd benchmark && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test ./...

# Short coverage-guided runs of the native fuzz targets over the
# untrusted-input parsers (traceparent headers, MsgImage blobs, wire
# frames, hostproto messages, the restoring enclave's checkpoint leaves)
# and of the XOR-delta encoder against its reference. CI runs this
# budget on every push; longer local runs just raise -fuzztime. Each target starts from its committed seed corpus in
# <pkg>/testdata/fuzz/ (plain `go test` replays those seeds too);
# regenerate with REGEN_FUZZ_CORPUS=1 go test -run TestRegenFuzzCorpus.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/telemetry/ -run='^$$' -fuzz=FuzzExtract -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run='^$$' -fuzz=FuzzParseImageBlob -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run='^$$' -fuzz=FuzzXORDelta -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hostproto/ -run='^$$' -fuzz=FuzzRead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/enclave/ -run='^$$' -fuzz=FuzzCheckpointLeaves -fuzztime=$(FUZZTIME)

race:
	$(GO) test -race ./...

# The paper's figures and the A1-A4 ablations at their -quick sweeps.
bench:
	$(GO) run ./cmd/sgxmig-bench -quick

# One iteration of every layer benchmark under the migration hot path
# (sealer, EWB/ELDU, enclave teardown on a daemon-sized EPC, FaultIn on a
# full pool, 8 MiB build and dump/restore, XOR-delta, page and chunk
# encoding, the shaped pipe, a control message over loopback, the vmm page
# stream and guest-memory stores, reads and page applies, a fleet.Request
# round trip against a daemon), with
# allocation counts: a smoke run that they still build and run, and the
# quick look at a layer before reaching for benchmark/. Raise -benchtime for
# numbers worth comparing.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/tcb ./internal/sgx ./internal/epcman ./internal/enclave ./internal/core ./internal/vmm ./internal/hostd ./internal/fleet
