# Pre-PR gate for barterdist. `make check` must pass before sending a
# change for review; it is exactly what CI runs.

GO ?= go

.PHONY: check build vet fmt lint test race fuzz figures tablef scale flashcrowd bench bench-shard clean

## check: the full pre-PR gate — vet, formatting, lint, build, race-enabled tests
check: vet fmt lint build race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -s -l lists unformatted (or unsimplified) files; any output
# fails the gate.
fmt:
	@out="$$(gofmt -s -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

## lint: the static gate, cmd/cdvet — one load of the module, all eight
## rules (determinism, invariants, concurrency containment, shard
## purity, heap-escape drift vs the committed ANALYSIS.json baseline).
## Fails on any finding or drift; see DESIGN.md §8 for the rules, their
## exemptions and the //lint:<rule> suppression syntax. Legitimate
## analysis changes re-baseline with `go run ./cmd/cdvet -update`.
lint:
	$(GO) run ./cmd/cdvet

test:
	$(GO) test ./...

## race: race-enabled tests with -short, which skips only the n=20k
## large-swarm smoke (the slowest plain test; much slower under race).
## CI's dedicated `scale` job runs that smoke under -race with a
## saturated pool; locally, `go test ./...` (the tier-1 sweep) still
## runs it plain.
race:
	$(GO) test -race -short ./...

## fuzz: the decoder fuzzers — hostile checkpoint bytes and hostile
## trace-snapshot bytes must produce errors, never panics or wrong
## decodes. 30s per target here; CI runs a shorter smoke under -race,
## and `go test -fuzz` with no -fuzztime runs them open-ended.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzTraceCursor -fuzztime $(FUZZTIME) ./internal/trace/

## figures: regenerate the evaluation artifacts at medium scale
figures:
	$(GO) run ./cmd/paperfigs -scale medium -out results

## tablef: the "protection of barter" adversary experiment alone
## (honest completion & stall rate vs adversary fraction, barter
## off/on, both engines; see EXPERIMENTS.md Table F)
tablef:
	$(GO) run ./cmd/paperfigs -scale medium -only tableF -out results

## scale: the large-n scale-out capstone at full size — T vs n for
## n in {1k, 10k, 100k, 1M}, k=64, randomized + credit s=1, tracing
## on. The largest row additionally sweeps the sharded tick core at
## P in {1,2} (wall-clock column). Hours-long: the cell store makes
## the run resumable after a crash or ^C (single process; see
## EXPERIMENTS.md for peak-RSS / ns-per-tick).
scale:
	$(GO) run ./cmd/paperfigs -scale full -only tableScale -out results \
		-checkpoint results/tableScale.cells.jsonl

## flashcrowd: the open-system scale acceptance at full size — a flash
## crowd of 10^5 arriving peers (λ=64, rarest-first, depart at
## completion) run to a drained verdict four times: ShardWorkers 1 vs 8
## (byte-identical fingerprints), audited, and checkpoint/resumed.
## ~6 minutes; measurements recorded in EXPERIMENTS.md Table G.
flashcrowd:
	BARTERDIST_FLASHCROWD=1 $(GO) test ./internal/core -run TestFlashCrowdScale -count=1 -v -timeout 30m

## bench: run the benchmark suite and write a BENCH_<date>.json
## snapshot (ns/op, B/op, allocs/op, speedup vs the newest committed
## snapshot). Commit the snapshot with perf-affecting PRs. The
## BenchmarkExactPass scaling runs (n = 20k to 80k at P = 1 and 2)
## take about two minutes of each repetition on a 2-core host.
bench:
	$(GO) run ./cmd/cdbench

## bench-shard: the shard-scaling snapshot — the benchmarks that read
## the tick-core width (BenchmarkScale20kCreditSmoke and
## BenchmarkExactPass/closed-credit, both credit s=1) at P=1 and at
## P=2, written to BENCH_<date>-shard-p1.json and -shard-p2.json, then
## the P=1 → P=2 delta table. The P=2 snapshot's speedup_vs_baseline is
## the sharded speedup. A speedup counts only with at least as many
## cores as workers, so P stops at 2: on a 2-core host a wider P
## measures oversubscription. Run on a quiet machine: a busy core
## poisons the medians.
bench-shard:
	d=$$(date +%Y-%m-%d); \
	$(GO) run ./cmd/cdbench -bench 'Scale20kCreditSmoke|ExactPass/closed-credit' \
		-shardworkers 1 -out BENCH_$$d-shard-p1.json && \
	$(GO) run ./cmd/cdbench -bench 'Scale20kCreditSmoke|ExactPass/closed-credit' \
		-shardworkers 2 -baseline BENCH_$$d-shard-p1.json -out BENCH_$$d-shard-p2.json && \
	$(GO) run ./cmd/cdbench -compare BENCH_$$d-shard-p1.json BENCH_$$d-shard-p2.json

clean:
	$(GO) clean ./...
