GO ?= go

.PHONY: all build test race vet tabslint lockorder-gate staticcheck lint bench-smoke fuzz-smoke torture-smoke

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# tabslint is the repo's domain-aware analyzer suite: five per-unit
# passes (spanleak, lockhold, durcheck, sleepsync, poolmisuse) plus three
# whole-program SSA passes (lockorder, cowviol, bufown) checked against
# LOCK_ORDER.txt. It needs no dependencies beyond the toolchain. The
# binary is built once into bin/ so repeated lint runs reuse the build
# cache instead of re-linking under `go run`.
bin/tabslint: FORCE
	$(GO) build -o $@ ./tools/tabslint

tabslint: bin/tabslint
	bin/tabslint ./...

# Re-verifies just the lock hierarchy: fails on any acquisition edge not
# declared in LOCK_ORDER.txt, any declared edge no longer observed, and
# any cycle. CI runs this as a separate step so a lock-order break is
# named in the job summary rather than buried in the lint log.
lockorder-gate: bin/tabslint
	bin/tabslint -json ./... > tabslint.json || { cat tabslint.json; exit 1; }

# staticcheck covers ./... including tools/tabslint and tools/allocgate
# (the pre-v2 lint target never exercised staticcheck.conf against
# tools/). The binary is not vendored — offline checkouts skip with a
# notice; CI installs it and fails for real.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping (CI runs it over ./...)"; \
	fi

lint: vet tabslint staticcheck

FORCE:

# Mirrors the CI bench smoke: one iteration of the WAL group-commit
# benchmark, a 2-node 2-shard mini scale-out sweep (asserts steady-state
# lookups are pure cache hits with zero broadcasts), a small
# migrate-under-load run (asserts zero failed transactions), then the
# allocation-regression gate — hot-path benchmarks run with -benchmem and
# must stay within the checked-in ALLOC_BUDGET.txt. Commit throughput and
# the 2pc/paxos pair are covered by the benchmark/ smoke that `make test`
# already runs; the coordinator-kill A/B by torture-smoke.
bench-smoke:
	$(GO) test -bench=GroupCommit -benchtime=1x ./internal/wal
	$(GO) test ./internal/bench -run TestShardingSmoke -count=1 -timeout 120s
	$(GO) test ./internal/bench -run TestMigrationSmoke -count=1 -timeout 120s
	$(GO) run ./tools/allocgate -budget ALLOC_BUDGET.txt -bench 'AppendForce|EnvelopeEncode|LookUpCached' ./internal/wal ./internal/comm ./internal/nameserver

# Short fuzz of the codecs that parse bytes off the disk or the wire — the
# WAL record codec and the acp message and acceptor-state codecs — and of
# the log force path: appends, forces, failed and torn forces and reopens
# must read back exactly the forced prefix. Each FuzzForceReopen run drives
# a whole log from format to reopen, so minimizing a new input is capped
# at 200 runs; uncapped, minimization would use up the 10 s. CI runs the
# same invocation.
fuzz-smoke:
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzRecordRoundTrip -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzForceReopen -fuzztime 10s -fuzzminimizetime 200x
	$(GO) test ./internal/acp -run '^$$' -fuzz FuzzACPCodec -fuzztime 10s

# Fixed-seed fault-injection torture runs (3 nodes, crashes + partitions +
# disk faults) under both commit protocols, plus the coordinator-kill
# pin: 2pc must demonstrate the blocking window, paxos must resolve every
# prepared transaction with the coordinator permanently dead — and the
# online-migration torture: shards migrating between crash/rebooting data
# nodes under live load, with zero lost client writes. Failures print the
# seed (and fault trace) for reproduction; `tabsbench torture -seed N
# -profile P` and `tabsbench coordkill` rerun one by hand. CI runs the
# same invocation.
torture-smoke:
	$(GO) test ./internal/fault -run 'TestTortureSmoke|TestTorturePaxosSmoke|TestCoordKillBlockingWindow|TestTortureMigrateSmoke' -count=1 -timeout 300s -v
