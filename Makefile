# Tier-1 verification lives here: `make check` is what CI and the roadmap
# run. The race pass covers the packages with real concurrency — the PAL
# service and the remote-attestation protocol — plus the memory and CPU
# cores, which every service worker drives under its machine's lock, and
# the process-global caches: the TPM's measurement cache and crypto memo, used
# by every service worker, and the experiments' lab machines, which
# concurrent regenerations take in turn. It also covers the profiler, whose
# aggregation root is shared across machines, and the chaos injector, whose
# decision streams are drawn from every worker at once. batch-stress
# repeats the quote batcher's tests under the race detector at one, two and
# four CPUs, because how jobs group into batches depends on scheduling.

GO ?= go

.PHONY: check fmt build vet test race batch-stress tcbbench loc tcb-loc bench benchcmp soak soak-short cluster-soak audit-verify fuzz-short

check: fmt build vet test race batch-stress tcbbench tcb-loc benchcmp audit-verify soak-short fuzz-short

# fmt fails when gofmt would change any tracked .go file. It lists tracked
# files only, so the benchmark's untracked .bench_build tree (its Go module
# and build caches) is never scanned.
fmt:
	@out="$$(git ls-files '*.go' | xargs gofmt -l)"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/palsvc ./internal/cluster ./internal/attest \
		./internal/obs ./internal/obs/prof ./internal/cpu ./internal/mem \
		./internal/chaos ./internal/sksm ./internal/audit ./internal/tpm \
		./internal/experiments ./cmd/palservd ./cmd/attestd

# batch-stress runs the batcher's tests ten times each at -cpu 1, 2 and 4
# under the race detector. The batcher flushes whatever jobs wait for it,
# so a test that counts on one grouping passes at one -cpu value and
# flakes at another; this step makes such a test fail here first.
batch-stress:
	$(GO) test -race -count 10 -cpu 1,2,4 -run 'TestBatch' ./internal/palsvc

# tcbbench vets and tests the end-to-end benchmark. It is a module of its
# own (cmd/tcbbench/go.mod), so the root `go test ./...` never compiles
# it, yet it builds against palsvc, cluster, core, sksm and attest.
tcbbench:
	cd cmd/tcbbench && $(GO) vet ./... && $(GO) test ./...

# loc prints the tracked source size: non-test Go lines outside the
# benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './cmd/tcbbench/*' \
		-not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# tcb-loc prints the size of the code a relying party trusts: the non-test
# Go lines of every in-module package internal/attest depends on. It fails
# if the TPM simulator (internal/tpm, internal/obs or internal/lpc) is
# among them, because the verifier decides from the signed quote alone.
tcb-loc:
	@deps="$$($(GO) list -deps ./internal/attest)" || exit 1; \
	bad="$$(echo "$$deps" | grep -E '^minimaltcb/internal/(tpm|obs|lpc)$$')"; \
	if [ -n "$$bad" ]; then echo "internal/attest depends on:"; echo "$$bad"; exit 1; fi; \
	$(GO) list -deps -f '{{if not .Standard}}{{range .GoFiles}}{{$$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' \
		./internal/attest | xargs cat | wc -l

# soak drives the fault-injected zero-loss/zero-leak acceptance run (see
# docs/RESILIENCE.md): a multi-replica service under the "soak" profile over
# real TCP, asserting the terminal counters partition every submitted job,
# LeakCheck comes back clean, and every injected PAL fault produced exactly
# one crash bundle. Override the knobs per run, e.g.:
#   make soak CHAOS_SOAK_PROFILE=heavy CHAOS_SOAK_SEED=42
CHAOS_SOAK_PROFILE ?= soak
CHAOS_SOAK_SEED ?= 1
soak:
	CHAOS_SOAK_PROFILE=$(CHAOS_SOAK_PROFILE) CHAOS_SOAK_DURATION=6s \
		CHAOS_SOAK_SEED=$(CHAOS_SOAK_SEED) \
		$(GO) test -v -count 1 -run TestSoakZeroLossUnderChaos ./internal/palsvc

# soak-short is the check-gate version: same assertions, shorter load.
soak-short:
	CHAOS_SOAK_PROFILE=$(CHAOS_SOAK_PROFILE) CHAOS_SOAK_DURATION=1200ms \
		CHAOS_SOAK_SEED=$(CHAOS_SOAK_SEED) \
		$(GO) test -count 1 -run TestSoakZeroLossUnderChaos ./internal/palsvc

# fuzz-short runs four fuzzers for 10 s each: those of the two decoders
# that take bytes from the network, palsvc's run frames and attest's batch
# quotes; mem's FuzzPageTable, which drives the §5.2 page table in
# lockstep with a dense reference model; and isa's FuzzExecDifferential,
# which runs any program under two preemption schedules and requires the
# same result from both. `make test` runs only their seed
# corpora. The fuzzer writes a crashing input under the package's
# testdata/fuzz/; commit it with the fix, and every later `make test`
# replays it as a seed. Minimizing each new interesting input is capped at
# 100 runs: uncapped, FuzzRunFrame spent most of its 10 s minimizing a
# few-hundred-byte input and ran ~10,000 inputs instead of ~66,000.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzRunFrame$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/palsvc
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyBatchedQuote$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/attest
	$(GO) test -run '^$$' -fuzz '^FuzzPageTable$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzExecDifferential$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/isa

# cluster-soak is the fleet-level acceptance run (see docs/CLUSTER.md): a
# palrouter-shaped Router over three chaos-injected backends under
# multi-tenant load, with one backend's network killed mid-run. It asserts
# tenants saw zero transport errors, every node's terminal counters still
# partition its submissions, the victim was drained from the ring, and no
# backend leaked. Same knob style as soak:
#   make cluster-soak CLUSTER_SOAK_PROFILE=heavy CLUSTER_SOAK_SEED=42
CLUSTER_SOAK_PROFILE ?= soak
CLUSTER_SOAK_SEED ?= 1
cluster-soak:
	CLUSTER_SOAK_PROFILE=$(CLUSTER_SOAK_PROFILE) CLUSTER_SOAK_DURATION=6s \
		CLUSTER_SOAK_SEED=$(CLUSTER_SOAK_SEED) \
		$(GO) test -v -count 1 -run TestClusterFailoverSoak ./internal/cluster

# audit-verify exercises the tamper-evident log end to end (see
# docs/AUDIT.md): the persistence/recovery/tamper matrix in
# internal/audit, the demo cross-check that verifies both attestd-side
# logs offline, and tcbaudit's offline -verify path — inclusion plus
# cross-restart consistency proofs replayed with no daemon running.
audit-verify:
	$(GO) test -count 1 ./internal/audit
	$(GO) test -count 1 -run 'TestDemoAuditCrossCheck' ./cmd/attestd
	$(GO) test -count 1 -run 'TestOfflineQueryAndVerify|TestVerifyDetectsTamper' ./cmd/tcbaudit

# bench commits a machine-readable artifact so later sessions can diff
# against this PR's numbers. Time-based -benchtime lets go test pick the
# iteration count per benchmark: fixed 100x gave microsecond-scale
# benchmarks ±2x run-to-run noise, which tripped the benchcmp gate on
# machine weather rather than real regressions.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.5s -benchmem . ./internal/obs ./internal/palsvc ./internal/audit \
		| $(GO) run ./cmd/benchjson -o BENCH_PR10.json

# benchcmp gates the committed artifacts: the batched quote pipeline must
# only ever move the attested-job numbers down, and the zero-allocation
# fast paths of earlier PRs must survive with batching both on and off.
# Thresholds live in cmd/benchjson (-max-ns-regress 50%,
# -max-alloc-regress 25% by default); nothing reruns benchmarks here.
benchcmp:
	$(GO) run ./cmd/benchjson -compare BENCH_PR9.json BENCH_PR10.json
