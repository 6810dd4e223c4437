# Test tiers. tier1 is the gate every change must pass. tier2 adds a fresh
# (uncached) run of every package under the race detector and four passes:
# tier2-lattice runs every legal point of the mode lattice
# (internal/pipeline/lattice_test.go: every strategy × discipline ×
# nursery × tlab × shards × torture × fail-every × suspend-at-allocs ×
# quantum combination no rule refuses, each on the next program of the
# single-task corpus, the task corpus and the showcase that may take it;
# internal/workloads/corpus holds all three)
# against its oracle — interp for a compiled cell, the cell's own strategy
# otherwise, with no other mode — with the heap verifier after every
# collection, which also holds each stack's root resolution to the paper's
# recursive resolver: 608 points, ≈ 55-65 s on 2 vCPUs (46 s before the
# resolver joined the verifier). tier 1 runs a pairwise-covering subset.
# tier2-serve is a 16000-request serve run under a timeout: it takes ~0.4 s
# while a serve run is linear in its requests and ~3 s with a per-tick or
# per-round rescan, far more under a loaded machine — a reintroduced rescan
# fails here instead of slowing a benchmark row. It then runs the torture and
# pressure lines below on a tfserve built with -race; each fails unless its
# requests: line reads faulted=0 wrong=0. tier2-bench runs every Go
# micro-benchmark once, so one that stopped compiling or running fails here
# rather than at the next profile; on a failure it prints the --- FAIL and
# FAIL lines (and the line after each) of its log, .bench_build/tier2-bench.log.
# fuzz (below) gives FuzzMarkSweepHoles, FuzzGeneratedProgram (internal/pipeline: a
# generated program of any seed on every strategy and discipline, collecting
# before every allocation under the heap verifier) and tfserve's FuzzFlagLine
# 30 s each; the root package's
# TestMakefileNamesExistingTests fails when a name this file passes to -run,
# -bench or -fuzz matches no test, which go test itself would pass.
#
# times runs every package's tests once, uncached, and prints each package's
# wall time (a package over the 15 s per-package budget is marked) and the test
# totals — the tier-1 pass count a change must not lower; it fails when a
# test or a package does.
#
# loc prints the non-test Go lines outside benchmark/ — raw, and without
# blank and comment-only lines — so a simplification's "net negative" is a
# number that can be checked against the parent commit; three more lines give
# the same two counts for internal/gc, internal/heap and internal/tasking alone,
# and a last one the lines of the MinML corpus (internal/workloads/corpus), so
# that a program moved from a Go string literal into a file reads as a move.
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
# profile-gc is the same for the collector: by default it runs
# BenchmarkCollectResident (internal/gc: full collections of a copying heap
# holding ≈ 80 k live words of pair lists — ns per word copied, the tracer's
# claim-and-copy loop, heap.(*Claim).Visit on top) under a CPU profile and
# prints the top 12. GC_BENCH=BenchmarkStackWalk profiles the fixed cost
# instead: one collection over a depth-640 polymorphic tower at four
# instantiations, and over a three-function mutual recursion — ns per frame
# walked, B/op and allocs/op. A healthy walk has no growslice/makeslice under it, 1 allocs/op
# (the record's per-task scan list), and B/op is that and the telemetry
# records' amortized growth alone. A third row walks the tower on a
# mark/sweep heap.
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
# counts writes the benchmark's exact rows to one file (COUNTS, by default
# .bench_build/counts.txt): for each workload, every row of a traced 0.3 s
# run at seed 1 whose unit is not a time (s, ns, us), a rate (1/s, MB/s) or
# host memory (MB), as "workload metric value unit". Two runs on one tree
# write identical files, so diffing a parent's file against a change's is
# the proof that the change moved no count. Dropped besides the units:
# bench.reps, gc.pause_samples (timed repeats × collections: the repeats
# that fit in 0.3 s) and bench.trace_overhead_ratio (a time ratio).
# benchmark-check BASE=<runs.json> is the regression gate: ten runs of each
# workload compared against a run file an earlier commit wrote with
# `go run ./benchmark -runs 10 -out <runs.json>`.

.PHONY: benchmark benchmark-check counts profile-interp opcode-pairs profile-compile profile-gc tier1 tier2 tier2-lattice tier2-serve tier2-bench times loc bench fuzz

tier1:
	go build ./...
	go vet ./...
	go test ./...

tier2: tier1 tier2-lattice tier2-serve tier2-bench fuzz
	go test -race -count=1 -timeout 30m ./...

tier2-lattice:
	GC_TORTURE_FULL=1 go test -run TestModeLattice -count=1 -timeout 60m ./internal/pipeline/

# The torture and pressure lines, closed-loop runs of a task workload unless
# they set -period (collections per line in brackets). They were the cells of
# the .tfs scenarios tier2 ran before the DSL was deleted:
#   poly-torture (torture.tfs)           taskpoly lines, copying and mark/sweep [1200 each]
#   churn-pressure (torture.tfs)         the taskchurn -fail-every line [10]
#   shard-churn (shard-torture.tfs)      taskchurn -shards 1, 2, 4, copying and mark/sweep [15, 14, 12]
#   shard-pressure (shard-torture.tfs)   the taskmutate line [105]
#   overload-torture (overload-torture.tfs) the taskserve line [707; completed 9, shed 63,
#                                        dropped 21, p99 176114 — TestCLIOverloadTorture pins them]
SERVE_LINES = \
	'-workload taskpoly -gc-torture -verify-heap' \
	'-workload taskpoly -gc-torture -verify-heap -marksweep' \
	'-workload taskchurn -heap 1024 -fail-every 400 -heap-grow 1.5 -heap-max 8192' \
	'-workload taskchurn -gc-nursery 256 -shards 1 -verify-heap' \
	'-workload taskchurn -gc-nursery 256 -shards 2 -verify-heap' \
	'-workload taskchurn -gc-nursery 256 -shards 4 -verify-heap' \
	'-workload taskchurn -gc-nursery 256 -shards 1 -verify-heap -marksweep' \
	'-workload taskchurn -gc-nursery 256 -shards 2 -verify-heap -marksweep' \
	'-workload taskchurn -gc-nursery 256 -shards 4 -verify-heap -marksweep' \
	'-workload taskmutate -heap 1024 -gc-nursery 128 -shards 4 -fail-every 400 -heap-grow 1.5 -heap-max 8192 -verify-heap' \
	'-workload taskserve -period 1500 -burst 2 -requests 30 -seed 13 -queue 6 -inflight 3 -shed-heap 85 -retries 2 \
		-deadline 300000 -budget-steps 2000000 -mix req_tiny:4,req_small:2 -gc-torture -verify-heap -fail-every 400'

tier2-serve:
	mkdir -p .bench_build
	go build -o .bench_build/tfserve ./cmd/tfserve
	timeout 2 .bench_build/tfserve -marksweep -budget-steps 2000000 -period 3000 -requests 16000 -queue 8 -inflight 4 -retries 6 >/dev/null
	go build -race -o .bench_build/tfserve-race ./cmd/tfserve
	for args in $(SERVE_LINES); do \
		out=$$(.bench_build/tfserve-race $$args) || exit 1; \
		echo "$$out" | grep -q '^requests: .* faulted=0 wrong=0$$' || { echo "tfserve $$args:"; echo "$$out"; exit 1; }; \
		echo "$$out" | grep -e '^requests: ' -e '^throughput: '; \
	done

tier2-bench:
	mkdir -p .bench_build
	go test -run xxx -bench . -benchtime 1x ./internal/gc/ ./internal/tasking/ ./internal/pipeline/ >.bench_build/tier2-bench.log 2>&1 || \
		{ grep -A1 -e '--- FAIL' -e '^FAIL' -e '^panic:' .bench_build/tier2-bench.log; exit 1; }

times:
	go test -count=1 -json ./... | awk ' \
		/"Action":"(pass|fail|skip)"/ { \
			act = "skip"; if ($$0 ~ /"Action":"pass"/) act = "pass"; if ($$0 ~ /"Action":"fail"/) act = "fail"; \
			match($$0, /"Package":"[^"]*"/); pkg = substr($$0, RSTART + 11, RLENGTH - 12); \
			if ($$0 ~ /"Test":/) { n[act]++; if (act == "fail") { match($$0, /"Test":"[^"]*"/); print "FAIL " pkg " " substr($$0, RSTART + 8, RLENGTH - 9) }; next } \
			if (act == "skip") next; \
			match($$0, /"Elapsed":[0-9.]+/); el = substr($$0, RSTART + 10, RLENGTH - 10) + 0; \
			printf "%-4s %6.1f s  %s%s\n", act, el, pkg, (el > 15 ? "  (over the 15 s budget)" : ""); if (act == "fail") pf++ } \
		END { printf "tests: %d passed, %d failed, %d skipped; %d packages failed\n", n["pass"], n["fail"], n["skip"], pf; exit n["fail"] + pf > 0 }'

LOC_FILES = find $(1) -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.git/*'
LOC_COUNT = $$($(LOC_FILES) | xargs cat | wc -l) ($$($(LOC_FILES) | xargs cat | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//') without blank and comment lines)
loc:
	@echo "non-test Go lines outside benchmark/: $(call LOC_COUNT,.)"
	@echo "of which internal/gc: $(call LOC_COUNT,./internal/gc)"
	@echo "of which internal/heap: $(call LOC_COUNT,./internal/heap)"
	@echo "of which internal/tasking: $(call LOC_COUNT,./internal/tasking)"
	@echo "MinML corpus lines (internal/workloads/corpus/*.ml): $$(cat internal/workloads/corpus/*.ml | wc -l)"

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

GC_BENCH = BenchmarkCollectResident
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

benchmark:
	go run ./benchmark

WORKLOADS = calls churn resident polystack taskmix taskmix-gen compile serve
COUNTS ?= .bench_build/counts.txt
counts:
	mkdir -p .bench_build
	go build -o .bench_build/benchmark ./benchmark
	for w in $(WORKLOADS); do \
		.bench_build/benchmark -workload $$w -seed 1 -trace 1 -seconds 0.3 >.bench_build/counts-$$w.log || exit 1; \
		awk -v w=$$w 'NF == 3 && $$1 !~ /^(#|bench\.reps$$|gc\.pause_samples$$|bench\.trace_overhead_ratio$$)/ && \
			$$3 !~ /^(s|ns|us|MB|MB\/s|1\/s)$$/ { print w, $$1, $$2, $$3 }' .bench_build/counts-$$w.log; \
	done >$(COUNTS)
	@echo "$$(wc -l <$(COUNTS)) exact rows in $(COUNTS)"

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

# Budgeted fuzzing of the mark/sweep hole invariants, of generated programs
# under the verifier and of the flag front end.
fuzz:
	go test ./internal/heap/ -fuzz FuzzMarkSweepHoles -fuzztime 30s
	go test ./internal/pipeline/ -run '^FuzzGeneratedProgram$$' -fuzz '^FuzzGeneratedProgram$$' -fuzztime 30s
	go test ./cmd/tfserve/ -fuzz FuzzFlagLine -fuzztime 30s
