GO ?= go

.PHONY: ci fmt vet build test race bench bench-paper bench-smoke fuzz-smoke revised-smoke crash-resume shard-smoke obs-smoke screen-smoke perfbench-smoke repro clean

ci: fmt vet build race bench-smoke fuzz-smoke revised-smoke crash-resume shard-smoke obs-smoke screen-smoke perfbench-smoke repro

# Formatting gate: fails when gofmt would rewrite any file, listing them.
fmt:
	@out=$$(gofmt -l .) && test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the whole module with a short trial budget: the golden
# full-pipeline runs are skipped (they are single-threaded determinism
# checks), while every concurrent path — parallel fan-out, the shared solve
# cache, journaling — still runs under the detector.
race:
	$(GO) test -race -short ./...

# Micro-benchmark report: runs every root Benchmark* that TestBench lists in
# one pass and writes the committed BENCH_micro.json, pairing ns/op with the
# deterministic work counters each benchmark produced, then fails on any
# speedup or counter-attribution gate. The paper-figure benchmark is
# perfbench/.
bench:
	BENCH_OUT=BENCH_micro.json $(GO) test -run '^TestBench$$' -count=1 -v .

# Paper-figure trajectory: one perfbench run (--trace 0, the 36 s budget
# BENCHMARK.json sets) on each workload at seed 1, each result line
# appended to the committed BENCH_paper.json tagged with the commit it
# measured ("-dirty" when the tree has uncommitted changes) and the seed.
# Run it on a quiet machine; each performance change leaves its rows.
bench-paper:
	@commit=$$(git describe --always --dirty --abbrev=7) && \
	for w in fig5_graph fig3_matrix fig5_warm; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 36 --trace 0) || exit 1; \
		printf '{"commit":"%s","workload":"%s","seed":1,"result":%s}\n' \
			"$$commit" "$$w" "$$(printf '%s\n' "$$out" | tail -n 1)" >> BENCH_paper.json; \
	done

# One-iteration pass over every benchmark: catches benchmarks that no longer
# compile or panic, without paying for a timed run. Part of ci.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 1 ./...

# Short fuzz smoke: exercise each fuzz target briefly so regressions in the
# hostile-input paths surface in CI without a long fuzzing budget.
fuzz-smoke:
	$(GO) test ./internal/lp/ -run=^$$ -fuzz=FuzzSolveAgreement -fuzztime=5s
	$(GO) test ./internal/lp/ -run=^$$ -fuzz=FuzzHostileInputs -fuzztime=5s
	$(GO) test ./internal/graph/ -run=^$$ -fuzz=FuzzUnmarshalValidate -fuzztime=5s
	$(GO) test ./internal/checkpoint/ -run=^$$ -fuzz=FuzzReadJournal -fuzztime=5s
	$(GO) test ./internal/milp/ -run=^$$ -fuzz=FuzzBranchAndBound -fuzztime=5s
	$(GO) test ./internal/lp/ -run=^$$ -fuzz=FuzzWarmStart -fuzztime=5s
	$(GO) test ./internal/lp/ -run=^$$ -fuzz=FuzzRevisedSimplex -fuzztime=5s
	$(GO) test ./internal/screen/ -run=^$$ -fuzz=FuzzScreenPrune -fuzztime=5s
	$(GO) test ./internal/adversary/ -run=^$$ -fuzz=FuzzAdversaryExact -fuzztime=5s

# Revised-vs-dense differential smoke: the dense-oracle battery (fixtures,
# outage sweeps, seeded random LPs, error taxonomy) on the sparse solver,
# and the pivot-total and solution-bit locks of both backends, cold and
# warm-started, on the stressed westgrid outage sweep. Part of ci.
revised-smoke:
	$(GO) test ./internal/lp/ -run 'TestRevisedVsDenseDifferential|TestRevisedWarmAcrossMethods|TestWestgridSweepLocks' -count=1

# Crash-resume acceptance: a sweep killed mid-run and resumed from its
# journal — including over a deliberately torn journal tail — must render
# CSV byte-identical to an uninterrupted run.
crash-resume:
	$(GO) test ./internal/checkpoint/ -count=1
	$(GO) test ./internal/experiments/ -run 'TestResume|TestRetries' -count=1
	$(GO) test ./internal/repeated/ -run 'TestResume' -count=1

# Sharded-sweep acceptance: the shard/supervisor/merge unit and integration
# tests, then an end-to-end binary check — a supervised 2-shard run, merged,
# must produce a CSV with the same checksum as a single-process run of the
# same seeded sweep.
shard-smoke:
	$(GO) test ./internal/shard/ -count=1
	$(GO) test ./internal/experiments/ -run 'TestShard|TestStrictReplay' -count=1
	$(GO) build -o /tmp/cpsguard-shard-smoke/cpsexp ./cmd/cpsexp
	rm -rf /tmp/cpsguard-shard-smoke/run
	/tmp/cpsguard-shard-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn \
		-csv /tmp/cpsguard-shard-smoke/run/single >/dev/null
	/tmp/cpsguard-shard-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn \
		-shard-supervise 2 -shard-dir /tmp/cpsguard-shard-smoke/run/shards >/dev/null
	/tmp/cpsguard-shard-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn \
		-shard-merge /tmp/cpsguard-shard-smoke/run/shards \
		-csv /tmp/cpsguard-shard-smoke/run/merged >/dev/null
	cmp /tmp/cpsguard-shard-smoke/run/single/fig5.csv /tmp/cpsguard-shard-smoke/run/merged/fig5.csv
	@echo "shard-smoke: merged CSV byte-identical to single-process run"

# Fleet observability acceptance: metric-name lint and strict-exposition
# round-trip over the live default registry, the trace-context/merge and
# Prometheus unit batteries, then an end-to-end binary check — a 2-shard
# supervised run whose per-process traces cpsreport stitches into one fleet
# timeline with every cross-process parent link resolved.
obs-smoke:
	$(GO) test ./internal/telemetry/ -count=1
	$(GO) test -run 'TestMetricNames|TestDefaultRegistryExposition|TestObsSmoke' -count=1 .

# N-k screening acceptance: the screen unit battery and the differential
# oracle (screened == brute force, bit-identical), then an end-to-end binary
# check — a screened `cpsexp -screen-k 2` run must produce a CSV
# byte-identical to the unscreened run of the same seeded sweep while its
# metrics snapshot shows the dominance rule actually pruned candidates.
screen-smoke:
	$(GO) test ./internal/screen/ -count=1
	$(GO) test ./internal/defense/ -run 'TestPlanRedesign' -count=1
	$(GO) build -o /tmp/cpsguard-screen-smoke/cpsexp ./cmd/cpsexp
	rm -rf /tmp/cpsguard-screen-smoke/run
	/tmp/cpsguard-screen-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn \
		-csv /tmp/cpsguard-screen-smoke/run/plain >/dev/null
	/tmp/cpsguard-screen-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn -screen-k 2 \
		-csv /tmp/cpsguard-screen-smoke/run/screened \
		-metrics /tmp/cpsguard-screen-smoke/run/metrics.json >/dev/null
	cmp /tmp/cpsguard-screen-smoke/run/plain/fig5.csv /tmp/cpsguard-screen-smoke/run/screened/fig5.csv
	grep -q '"screen.pruned": [1-9]' /tmp/cpsguard-screen-smoke/run/metrics.json
	@echo "screen-smoke: screened CSV byte-identical to unscreened run, pruning active"

# Paper-benchmark smoke: the perfbench module's own tests — a tiny run of
# every workload that also checks each metric name and unit against
# BENCHMARK.json, the golden Fig. 5 check and the warm == cold check.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

# Paper reproduction check: reruns the documented paper command
# (EXPERIMENTS.md) into a temporary directory and byte-compares fig2–fig7
# against the committed results/, so the published figures cannot drift
# silently.
repro:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/cpsexp" ./cmd/cpsexp && \
	"$$dir/cpsexp" -fig all -trials 10 -mode graph -log-level warn -csv "$$dir/run" >/dev/null && \
	for f in fig2 fig3 fig4 fig5 fig6 fig7; do \
		cmp "results/$$f.csv" "$$dir/run/$$f.csv" || exit 1; \
	done
	@echo "repro: fig2–fig7 byte-identical to results/"

# Remove build and scratch artifacts. The reference CSVs committed under
# results/ and the committed BENCH_micro.json are deliberately preserved:
# they are reviewed outputs, not build products.
clean:
	$(GO) clean ./...
	rm -f cpsattack cpsdefend cpsexp cpsflow cpsgen cpsreport
	rm -rf /tmp/cpsguard-shard-smoke /tmp/cpsguard-screen-smoke
	find . -name '*.journal' -not -path './results/*' -delete
	find . -name '*.test' -delete
