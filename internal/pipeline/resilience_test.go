package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"tagfree/internal/gc"
)

// Memory-pressure resilience tests: drive both heap disciplines to
// exhaustion at every rung of the recovery ladder (collect rescues, growth
// rescues, fault isolates) along each allocation path, and require the
// surviving tasks' results and outputs to be bit-identical to a run that
// never saw the pressure. The post-collection heap verifier is
// on throughout: any rung that corrupts the heap panics the test.

// ladderSrc has one greedy task that retains a structure far larger than
// the base heap, and two modest churn tasks whose results must not depend
// on what happens to the greedy sibling.
const ladderSrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let greedy () = len (upto 4000)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + sum (upto 15))
let mod_a () = work 25 0
let mod_b () = work 25 500
`

// ladderDisciplines are the two disciplines of the compiled strategy: the
// ladder is strategy-independent, so one strategy per discipline keeps the
// table focused on the heap behavior under test.
var ladderDisciplines = []struct {
	name string
	ms   bool
}{
	{"copying", false},
	{"marksweep", true},
}

// ladderAllocPaths are the ways a task's allocation reaches the heap: the
// heap itself, a per-task buffer that must be retired before each rung
// collects, and a nursery whose minors the ladder must step past.
var ladderAllocPaths = []struct {
	name string
	opts func(o *Options)
}{
	{"heap", func(o *Options) {}},
	{"tlab", func(o *Options) { o.TLABWords = 64 }},
	{"nursery", func(o *Options) { o.NurseryWords = 256 }},
}

func TestRecoveryLadderRungs(t *testing.T) {
	// Uncontended baseline: the modest tasks without the greedy sibling,
	// per discipline. Heap pressure from the greedy task must never leak
	// into these results.
	type baseline struct {
		values  []int64
		outputs []string
	}
	baselines := map[string]baseline{}
	for _, d := range ladderDisciplines {
		res, err := RunTasks(ladderSrc, []string{"mod_a", "mod_b"}, Options{
			Strategy:   gc.StratCompiled,
			HeapWords:  1024,
			MarkSweep:  d.ms,
			VerifyHeap: true,
		})
		if err != nil {
			t.Fatalf("baseline %s: %v", d.name, err)
		}
		baselines[d.name] = baseline{res.Values, res.Outputs}
	}

	rungs := []struct {
		name string
		opts func(o *Options)
		// wantFault is whether the greedy task must fault; when false it
		// must complete with the full list length.
		wantFault bool
		check     func(t *testing.T, res *TaskResult)
	}{
		{
			// Injected failures at a comfortable heap size: the emergency
			// collection alone rescues every allocation.
			name: "collect-rescues",
			opts: func(o *Options) {
				o.HeapWords = 1 << 15
				o.FailAllocEvery = 50
			},
			wantFault: false,
			check: func(t *testing.T, res *TaskResult) {
				rs := res.Telemetry.Resilience
				if rs.InjectedOOMs == 0 || rs.EmergencyCollections == 0 {
					t.Fatalf("no injected pressure recorded: %+v", rs)
				}
				if rs.HeapGrowths != 0 {
					t.Fatalf("collect rung should not grow the heap: %+v", rs)
				}
			},
		},
		{
			// Genuine exhaustion with the growth rung enabled: the heap
			// doubles until the greedy structure fits.
			name: "grow-rescues",
			opts: func(o *Options) {
				o.GrowFactor = 2
				o.MaxHeapWords = 1 << 17
			},
			wantFault: false,
			check: func(t *testing.T, res *TaskResult) {
				rs := res.Telemetry.Resilience
				if rs.HeapGrowths == 0 {
					t.Fatalf("growth rung never fired: %+v", rs)
				}
				if rs.TaskFaults != 0 {
					t.Fatalf("growth should have rescued the task: %+v", rs)
				}
			},
		},
		{
			// Exhaustion with no growth rung: the greedy task faults alone.
			name:      "fault-isolated",
			opts:      func(o *Options) {},
			wantFault: true,
			check: func(t *testing.T, res *TaskResult) {
				rs := res.Telemetry.Resilience
				if rs.TaskFaults != 1 {
					t.Fatalf("want exactly one task fault: %+v", rs)
				}
			},
		},
		{
			// Growth rung present but its ceiling is below what the greedy
			// structure needs: the ladder is climbed and still exhausted.
			name: "ceiling-fault",
			opts: func(o *Options) {
				o.GrowFactor = 2
				o.MaxHeapWords = 2048
			},
			wantFault: true,
			check: func(t *testing.T, res *TaskResult) {
				rs := res.Telemetry.Resilience
				if rs.HeapGrowths == 0 || rs.TaskFaults != 1 {
					t.Fatalf("want growth then fault: %+v", rs)
				}
			},
		},
	}

	for _, d := range ladderDisciplines {
		for _, rung := range rungs {
			for _, path := range ladderAllocPaths {
				t.Run(fmt.Sprintf("%s/%s/%s", d.name, rung.name, path.name), func(t *testing.T) {
					opts := Options{
						Strategy:   gc.StratCompiled,
						HeapWords:  1024,
						MarkSweep:  d.ms,
						VerifyHeap: true,
					}
					path.opts(&opts)
					rung.opts(&opts)
					res, err := RunTasks(ladderSrc, []string{"greedy", "mod_a", "mod_b"}, opts)
					if err != nil {
						t.Fatal(err)
					}
					if rung.wantFault {
						f := res.Faults[0]
						if f == nil {
							t.Fatalf("greedy task did not fault; values %v", res.Values)
						}
						if !strings.Contains(f.Error(), "heap exhausted") {
							t.Fatalf("fault does not carry the OOM cause: %v", f)
						}
						if len(f.Frames) == 0 {
							t.Fatalf("fault lacks a backtrace: %v", f)
						}
					} else if res.Faults[0] != nil {
						t.Fatalf("greedy task faulted: %v", res.Faults[0])
					} else if res.Values[0] != 4000 {
						t.Fatalf("greedy result %d, want 4000", res.Values[0])
					}
					// The surviving modest tasks must match the uncontended
					// baseline bit for bit.
					base := baselines[d.name]
					for i := 0; i < 2; i++ {
						if res.Faults[1+i] != nil {
							t.Fatalf("modest task %d faulted: %v", i, res.Faults[1+i])
						}
						if res.Values[1+i] != base.values[i] {
							t.Fatalf("modest task %d = %d, uncontended %d",
								i, res.Values[1+i], base.values[i])
						}
						if res.Outputs[1+i] != base.outputs[i] {
							t.Fatalf("modest task %d output diverges from uncontended run", i)
						}
					}
					rung.check(t, res)
				})
			}
		}
	}
}
