# Developer entry points; CI runs the same commands.

.PHONY: build test race vet lint lint-fix golden golden-update chaos fuzz

build:
	go build ./...

# test also vets and tests bench/, a nested module the root module's
# ./... never reaches: it compiles against internal/{server,query,
# spatialdb,region,wal,lang,bbox,workload}, so a signature it calls
# cannot change unnoticed. bench/harness.ServerStats decodes GET /stats
# by field name, so those names are a contract too.
test:
	go test ./...
	cd bench && go vet ./... && go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# lint runs the domain-invariant static-analysis suite (cmd/boolqvet:
# lockguard, ctxpoll, noalloc, walcheck, errflow — see DESIGN.md §8),
# plus gofmt and go vet. Blocking in CI; every finding is either a real
# bug or carries a reasoned `//lint:ignore <analyzer> <why>`.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go run ./cmd/boolqvet ./...

# lint-fix applies the mechanical part (formatting); analyzer findings
# need a human: fix the bug or add a reasoned suppression.
lint-fix:
	gofmt -w .

# golden diffs every corpus query's result set against the recorded
# expectations in internal/golden/testdata/golden (uncached, so CI and
# local runs always re-execute); golden-update re-records them from the
# naive reference executor after an intentional semantic change.
golden:
	go test ./internal/golden/... -count=1

golden-update:
	go test ./internal/golden -run TestCorpus -update -count=1

# chaos runs the seeded fault-injection property suite under -race:
# random mutate/query/checkpoint workloads against the vfs fault
# injector across all five backends, the HTTP degraded-mode and
# admission-control (429/503) contract tests, and the two-node
# replication matrix (kill/restart, partition-past-truncation,
# primary-crash promote). Blocking in CI; see DESIGN.md §9–10.
chaos:
	go test -race -count=1 \
		-run 'Chaos|ServerTransient|ServerDegraded|ServerSheds|ServerBatchSheds|AdmissionPool|Fault|WriteBudget' \
		./internal/wal/ ./internal/server/ ./internal/vfs/ ./internal/repl/

# fuzz runs the native fuzz targets for ten seconds each: the binary
# snapshot loader (FuzzLoadBinary, seeded from internal/spatialdb/testdata),
# the query parser and normaliser (FuzzParse, seeded from the golden
# corpus texts), the WAL segment reader (FuzzSegment: Open's tail
# repair and ReadFrom over an arbitrary active segment) and the mutation
# record (FuzzMutation: DecodeMutation, then ApplyReplicated on a store
# of each of the five index backends; every object an accepted record
# stores lies inside the universe), the bulk-insert body decoder
# (FuzzBulkObjects: POST objects:bulk?mode=best_effort with arbitrary
# bytes; every stored object lies inside the universe) and the
# /repl/wal envelope (FuzzReplRecords: the replica's NDJSON decoder, then
# its record apply). A failing input
# lands in the package's testdata/fuzz/<target> and replays in every plain
# `go test`. Minimising a newly interesting input may otherwise take the
# whole budget, so it is capped at one second.
fuzz:
	go test ./internal/spatialdb -run '^$$' -fuzz '^FuzzLoadBinary$$' \
		-fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/lang -run '^$$' -fuzz '^FuzzParse$$' \
		-fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/wal -run '^$$' -fuzz '^FuzzSegment$$' \
		-fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/spatialdb -run '^$$' -fuzz '^FuzzMutation$$' \
		-fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/server -run '^$$' -fuzz '^FuzzBulkObjects$$' \
		-fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/repl -run '^$$' -fuzz '^FuzzReplRecords$$' \
		-fuzztime 10s -fuzzminimizetime 1s
