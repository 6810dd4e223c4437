# Test tiers. tier1 is the gate every change must pass; tier2 adds the
# race detector over the parallel-collection paths and a fresh (uncached)
# run of the cross-strategy differential suite. The tracer that -par mark
# workers share with the serial trace (internal/gc: one copy of every walk and
# kernel, claims by compare-and-swap, a word stored only where it changed) is
# covered by three of tier2's -race runs, which are also the quick check after
# an edit there: `go test -race ./internal/gc ./internal/heap` and
# `go test -race -run 'TestDifferential|Parallel' ./internal/pipeline`. tier2-torture is the
# heavyweight stress pass: the full task corpus with a collection before
# every allocation and the post-collection heap verifier on, under the
# race detector. tier2-bench is the fast-path race smoke: 4 workers over
# the lock-free plan/site caches, and -par 4 workers first-touching
# unresolved type_gc nodes together.
# tier2-nursery is the generational stress pass: the nursery differential
# suite and write-barrier fuzz under the race detector, plus the nursery
# telemetry corpus with torture collection and the heap verifier on.
# tier2-tlab is the allocation-buffer pass: the TLAB unit and interleaving
# fuzz suites plus the cross-strategy allocation-equivalence differential
# suite under the race detector, and the telemetry corpus with buffers,
# torture collection and the heap verifier on. tier2-scenario is the
# declarative-matrix pass: the scenario DSL suites (golden diagnostics,
# compiler differential, fuzz seeds) under the race detector, plus the
# torture-mode scenario from the committed corpus — torture and the heap
# verifier requested through the DSL's faults block rather than flags.
# tier2-serve is the overload pass: the serve-harness suites (admission,
# shedding, backoff, ladder), the per-task budget suites, the run-queue and
# stack-pool scheduler suites, and the combined nursery+TLAB
# recovery-ladder test under the race detector, plus the committed
# overload-torture scenario (arrivals, shedding and the faults block's
# torture/injection knobs all through the DSL) and a 16000-request run
# under a timeout: it takes ~0.4 s while a serve run is linear in its
# requests and ~3 s with a per-tick or per-round rescan, far more under a
# loaded machine — a reintroduced rescan fails here instead of slowing a
# benchmark row.
# tier2-concurrent is the incremental-marking pass: the concurrent
# differential, interleaving-fuzz, watchdog and validation suites under
# the race detector, plus the committed concurrent-torture scenario —
# gc_concurrent cycling continuously in a tight heap with the verifier
# on, and gc_concurrent crossed with torture so every forced collection
# aborts an in-flight cycle. tier2-shard is the sharded-heap pass: the
# shard differential, interleaving-fuzz, gating and OOM-ladder suites
# plus the sharded overload-ledger test under the race detector, and the
# committed shard-torture scenario — per-shard minors with the verifier
# walking the whole heap after each, and injected failures climbing the
# global ladder with the nursery split four ways. tier2-liveness is the
# heap-liveness pass: the differential projection suite (retained-set
# subset via signature projection, poison traps, the 32-seed mode-matrix
# fuzz) under the race detector, plus the committed liveness-torture
# scenario — pruning crossed with torture and the verifier, and pruning
# pushed out of its envelope over sharded nurseries with injected
# failures so the counted-degrade path runs under stress too.
# tier2-single is the one-machine pass: a single-task run is a task group of
# one, so the single-task suites (the golden recorded on the interpreter the
# group replaced, the resilience-counter, torture, concurrent and nursery
# differentials, the lone-task slice tests) run under the race detector, and
# every program in testdata/progs runs with a collection before every
# allocation and the verifier on, on the copying, mark/sweep and nursery
# heaps.
#
# loc prints the non-test Go lines outside benchmark/ — raw, and without
# blank and comment-only lines — so a simplification's "net negative" is a
# number that can be checked against the parent commit; two more lines give
# the same two counts for internal/gc and for internal/tasking alone.
#
# profile-interp is the register-regression check for the one dispatch loop,
# tasking.(*Group).step, in whichever file of internal/tasking defines it: it
# runs BenchmarkDispatch (ns/instr on a call-, an allocation- and a
# store-barrier-shaped program) under a CPU profile, prints the profile's top
# entries, and counts — from the disassembly of step — the machine
# instructions of the inner loop (everything between the `dispatch:` label and
# the write-back after it, the helpers of step's own file inlined there
# included; a helper defined in another file does not move this total
# wherever it is inlined), the CALLs other than bounds-check panics (there
# must be none: anything that calls leaves the loop as an event) and the
# operands that address the stack frame (spills and reloads of loop state; the
# number to watch when the loop's locals change). The counts depend on the
# compiler's register allocator, so the toolchain is printed beside them
# (DESIGN.md §12 says which one the recorded numbers were read on).
#
# It also prints those operands case by case for the six hot ones (OpRet,
# OpCall, OpMove, OpAdd, OpJz, OpLdFld — a machine instruction belongs to the
# case whose source lines it was last seen in, inlined helpers included): the
# total moves when any case changes, only these say whether pc, fp, sp and the
# count still live in registers where it matters. A third line gives the same
# for the superinstruction heads (ISA.md), each a case of its own.
#
# opcode-pairs is the tool the heads were chosen with: a test-side driver
# (internal/tasking, TestOpcodePairs) that single-steps every program of both
# corpora on the quantum-1 reference scheduler, reads each task's pc between
# two instructions, and prints per program and for the corpus the most
# frequent dynamic opcode pairs and the share of dispatches the heads absorb
# when a slice is long enough to run them whole. The loop counts nothing for it.
#
# profile-gc is the same for the collector's fixed cost: it runs
# BenchmarkStackWalk (internal/gc: one collection over a depth-640 polymorphic
# tower at four instantiations, and over a three-function mutual recursion —
# ns per frame walked, B/op and allocs/op) under a CPU profile and prints the
# top 12. A healthy walk has no growslice/makeslice under it, 1 allocs/op
# (the record's per-task scan list), and B/op is that and the telemetry
# records' amortized growth alone. Two more rows walk the tower on a
# mark/sweep heap, serial and with two workers: the second is the shared-claim
# tracer's ns/frame, and its allocs/op (≈ 20) is the fan-out's fixed cost.
#
# profile-compile is the same for the compiler: it runs BenchmarkBuild
# (internal/pipeline: pipeline.Build over eight suffixed copies of the
# committed corpus, about 1200 functions, with B/op, allocs/op and MB/s) under
# a CPU profile and then under an allocation profile (apart, so that sampling
# allocations does not show up as CPU) and prints the top 12 of each — flat
# CPU, then allocated bytes. A Build is healthy when the runtime (gcBgMarkWorker,
# mallocgc, map assign/access) is not the top of the first and no single site
# of internal/mlang or internal/compile owns the second; TestBuildAllocBudget
# holds the object count per source byte in tier-1.
#
# benchmark runs the repository benchmark (BENCHMARK.json, benchmark/):
# eight seeded workloads, end-to-end metrics with tracing off.
# benchmark-check BASE=<runs.json> is the regression gate: ten runs of each
# workload compared against a run file an earlier commit wrote with
# `go run ./benchmark -runs 10 -out <runs.json>`.

.PHONY: benchmark benchmark-check profile-interp opcode-pairs profile-compile profile-gc tier1 tier2 tier2-torture tier2-bench tier2-nursery tier2-tlab tier2-scenario tier2-serve tier2-concurrent tier2-shard tier2-liveness tier2-single loc bench fuzz fuzz-scenario

tier1:
	go build ./...
	go vet ./...
	go test ./...

tier2: tier1 tier2-nursery tier2-tlab tier2-scenario tier2-serve tier2-concurrent tier2-shard tier2-liveness tier2-single
	go test -race ./...
	go test -run TestDifferential -count=1 ./internal/pipeline/

tier2-nursery:
	go test -race -run 'TestDifferentialNursery|TestNursery' -count=1 -timeout 30m ./internal/pipeline/
	go run -race ./cmd/tfbench -gc-nursery 256 -gc-torture -verify-heap telemetry >/dev/null

tier2-tlab:
	go test -race -run 'TestTLAB|TestDifferentialTLAB' -count=1 -timeout 30m ./internal/heap/ ./internal/pipeline/
	go run -race ./cmd/tfbench -tlab 64 -gc-torture -verify-heap telemetry >/dev/null

tier2-scenario:
	go test -race -run TestScenario -count=1 -timeout 30m ./internal/scenario/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/torture.tfs >/dev/null

tier2-serve:
	go test -race -count=1 -timeout 30m ./internal/serve/ ./cmd/tfserve/
	go test -race -run 'TestBudget|TestLadderOutcomeSplit|TestNurseryTLABLadder' -count=1 -timeout 30m ./internal/pipeline/
	go test -race -run 'TestSchedulerOrder|TestRunQueue|TestRecycledStack' -count=1 -timeout 30m ./internal/tasking/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/overload-torture.tfs >/dev/null
	go build -o .bench_build/tfserve ./cmd/tfserve
	timeout 2 .bench_build/tfserve -marksweep -period 3000 -requests 16000 -queue 8 -inflight 4 -retries 6 >/dev/null

tier2-concurrent:
	go test -race -run 'TestDifferentialConcurrent|TestConcurrent' -count=1 -timeout 30m ./internal/pipeline/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/concurrent-torture.tfs >/dev/null

tier2-shard:
	go test -race -run 'TestDifferentialShards|TestShard' -count=1 -timeout 30m ./internal/pipeline/
	go test -race -run TestShardedOverloadLedgerBalances -count=1 -timeout 30m ./internal/serve/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/shard-torture.tfs >/dev/null

tier2-liveness:
	go test -race -run 'TestHeapLiveness|TestPoisonTraps' -count=1 -timeout 30m ./internal/pipeline/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/liveness-torture.tfs >/dev/null

tier2-single:
	go test -race -run 'TestSingleTask|TestStepLimit|TestResilienceCounters|TestTortureDifferentialSingle|TestDifferentialConcurrentVM|TestDifferentialNurseryWorkloads' -count=1 -timeout 30m ./internal/pipeline/
	go test -race -run 'TestLoneTask|TestStepLimit' -count=1 -timeout 30m ./internal/tasking/
	go test -race -count=1 -timeout 30m ./internal/vm/ ./internal/workloads/
	go build -race -o .bench_build/tfgc-race ./cmd/tfgc
	for p in testdata/progs/*.ml; do for d in "" -marksweep "-gc-nursery 256"; do \
		.bench_build/tfgc-race run -heap 4096 -gc-torture -verify-heap $$d $$p >/dev/null || exit 1; \
	done; done

LOC_FILES = find $(1) -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.git/*'
LOC_COUNT = $$($(LOC_FILES) | xargs cat | wc -l) ($$($(LOC_FILES) | xargs cat | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//') without blank and comment lines)
loc:
	@echo "non-test Go lines outside benchmark/: $(call LOC_COUNT,.)"
	@echo "of which internal/gc: $(call LOC_COUNT,./internal/gc)"
	@echo "of which internal/tasking: $(call LOC_COUNT,./internal/tasking)"

STEP_SRC = ${shell grep -l '^func (g \*Group) step(' internal/tasking/*.go}
HEADS = OpEqJz OpNeJz OpLtJz OpLeJz OpGtJz OpGeJz OpIsBoxedJz OpTagIsJz OpMoveRet OpLdFldMove
profile-interp:
	mkdir -p .bench_build
	go test -c -o .bench_build/tasking.test ./internal/tasking
	cd internal/tasking && ../../.bench_build/tasking.test -test.run xxx -test.bench BenchmarkDispatch \
		-test.benchtime 1s -test.cpuprofile ../../.bench_build/interp.prof
	go tool pprof -top -nodecount 12 .bench_build/tasking.test .bench_build/interp.prof 2>/dev/null
	@go tool objdump -s 'tasking.\(\*Group\).step$$' .bench_build/tasking.test | awk \
		-v top=$$(grep -n '^func (g \*Group) step(' $(STEP_SRC) | cut -d: -f1) \
		-v lo=$$(grep -n '^	dispatch:$$' $(STEP_SRC) | cut -d: -f1) \
		-v hi=$$(grep -n '^		n -= left$$' $(STEP_SRC) | cut -d: -f1) \
		-v end=$$(grep -n '^func (g \*Group) event(' $(STEP_SRC) | cut -d: -f1) \
		-v src=$(notdir $(STEP_SRC)) -v go=$$(go env GOVERSION) \
		-v cases="$$(grep -n '^			\(case \|default:\)' $(STEP_SRC) | sed 's/:[^A-Za-z]*case code\./ /; s/[,:].*//' | tr '\n' ';')" ' \
		BEGIN { nc = split(cases, cs, ";"); for (i = 1; i < nc; i++) { split(cs[i], f, " "); at[i] = f[1] + 0; name[i] = f[2] } } \
		/^TEXT/ { next } \
		{ split($$1, w, ":"); ln = w[2] + 0 } \
		w[1] == src && ((ln >= top && ln < lo) || (ln >= hi && ln < end)) { cur = ""; next } \
		w[1] == src && ln >= lo && ln < hi { cur = ""; for (i = 1; i < nc; i++) if (at[i] <= ln && at[i] >= lo) cur = name[i] } \
		w[1] == src { n++ } /CALL/ && !/runtime\.panic/ { calls++ } /\(SP\)/ { sp++; per[cur]++ } \
		END { printf "inner loop of step (%s, %s): %d machine instructions, %d CALLs (bounds-check panics aside), %d stack-relative operands\n", src, go, n, calls, sp; \
		      printf "  of which in the hot cases:"; split("OpRet OpCall OpMove OpAdd OpJz OpLdFld", hot, " "); \
		      for (i = 1; i <= 6; i++) printf " %s %d", hot[i], per[hot[i]]; printf " (loop head and slice bookkeeping %d)\n", per[""]; \
		      printf "  and in the superinstruction heads:"; nf = split("$(HEADS)", fz, " "); \
		      for (i = 1; i <= nf; i++) printf " %s %d", fz[i], per[fz[i]]; printf "\n" }'

opcode-pairs:
	mkdir -p .bench_build
	go test -c -o .bench_build/tasking.test ./internal/tasking
	cd internal/tasking && ../../.bench_build/tasking.test -test.run '^TestOpcodePairs$$' -opcode-pairs

GC_BENCH = BenchmarkStackWalk
profile-gc:
	mkdir -p .bench_build
	go test -c -o .bench_build/gc.test ./internal/gc
	cd internal/gc && ../../.bench_build/gc.test -test.run xxx -test.bench '$(GC_BENCH)$$' \
		-test.benchtime 2s -test.cpuprofile ../../.bench_build/gc.prof
	go tool pprof -top -nodecount 12 .bench_build/gc.test .bench_build/gc.prof 2>/dev/null

profile-compile:
	mkdir -p .bench_build
	go test -c -o .bench_build/pipeline.test ./internal/pipeline
	cd internal/pipeline && ../../.bench_build/pipeline.test -test.run xxx -test.bench 'BenchmarkBuild$$' \
		-test.benchtime 3s -test.cpuprofile ../../.bench_build/compile.prof
	cd internal/pipeline && ../../.bench_build/pipeline.test -test.run xxx -test.bench 'BenchmarkBuild$$' \
		-test.benchtime 1s -test.memprofile ../../.bench_build/compile-mem.prof -test.memprofilerate 4096 >/dev/null
	go tool pprof -top -nodecount 12 .bench_build/pipeline.test .bench_build/compile.prof 2>/dev/null
	go tool pprof -sample_index=alloc_space -top -nodecount 12 .bench_build/pipeline.test .bench_build/compile-mem.prof 2>/dev/null

tier2-torture: tier1
	GC_TORTURE_FULL=1 go test -race -run 'TestTorture|TestRecoveryLadder|TestWatchdog' -count=1 -timeout 30m ./internal/pipeline/

tier2-bench: tier1
	go test -race -run 'TestFastPath|TestFirstTouchRace|TestComponentsMatchResolutionTasks' -count=1 ./internal/gc/ ./internal/pipeline/

benchmark:
	go run ./benchmark

BENCH_RUNS ?= benchmark-runs.json
benchmark-check:
	@test -n "$(BASE)" || { echo "usage: make benchmark-check BASE=<runs.json>"; exit 2; }
	go run ./benchmark -runs 10 -out $(BENCH_RUNS)
	go run ./benchmark -compare $(BASE) $(BENCH_RUNS)

# Go micro-benchmarks: slot dedupe, stack walk and parallel collect
# (internal/gc), the dispatch loop (internal/tasking), Build
# (internal/pipeline).
bench:
	go test -bench=. -benchmem -run xxx ./internal/gc/ ./internal/tasking/ ./internal/pipeline/

# Budgeted fuzzing of the mark/sweep free-list invariants.
fuzz:
	go test ./internal/heap/ -fuzz FuzzMarkSweepFreeList -fuzztime 30s

# Budgeted fuzzing of the scenario lexer/parser/compiler (no panics,
# every diagnostic positioned).
fuzz-scenario:
	go test ./internal/scenario/ -fuzz FuzzScenarioParse -fuzztime 30s
