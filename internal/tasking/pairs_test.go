package tasking_test

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

var opcodePairs = flag.Bool("opcode-pairs", false, "print the corpus's dynamic opcode-pair histogram (make opcode-pairs)")

// heads names the superinstruction heads by their parts.
var heads = map[code.Op][]string{
	code.OpEqJz: {"eq", "jz"}, code.OpNeJz: {"ne", "jz"}, code.OpLtJz: {"lt", "jz"}, code.OpLeJz: {"le", "jz"},
	code.OpGtJz: {"gt", "jz"}, code.OpGeJz: {"ge", "jz"}, code.OpIsBoxedJz: {"isboxed", "jz"},
	code.OpTagIsJz: {"tagis", "jz"}, code.OpMoveRet: {"move", "jmp", "ret"}, code.OpLdFldMove: {"ldfld", "move"},
}

// histogram is the dynamic opcode pairs of one or more runs, and what the
// superinstruction heads would absorb of them.
type histogram struct {
	instructions int64
	pairs        map[[2]code.Op]int64
	absorbed     map[code.Op]int64 // dispatches saved, per head
}

func (h *histogram) add(o *histogram) {
	h.instructions += o.instructions
	for k, v := range o.pairs {
		h.pairs[k] += v
	}
	for k, v := range o.absorbed {
		h.absorbed[k] += v
	}
}

func (h *histogram) print(name string, top int) {
	var saved int64
	for _, v := range h.absorbed {
		saved += v
	}
	fmt.Printf("%s: %d instructions, heads absorb %d dispatches (%.1f %%)",
		name, h.instructions, saved, 100*float64(saved)/float64(h.instructions))
	ops := make([]code.Op, 0, len(h.absorbed))
	for op := range h.absorbed {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return h.absorbed[ops[i]] > h.absorbed[ops[j]] })
	for _, op := range ops {
		fmt.Printf(" %s %.1f", strings.Join(heads[op], "→"), 100*float64(h.absorbed[op])/float64(h.instructions))
	}
	fmt.Println()
	keys := make([][2]code.Op, 0, len(h.pairs))
	for k := range h.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if h.pairs[keys[i]] != h.pairs[keys[j]] {
			return h.pairs[keys[i]] > h.pairs[keys[j]]
		}
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	var b strings.Builder
	for _, k := range keys[:min(top, len(keys))] {
		fmt.Fprintf(&b, " %s→%s %.1f", code.OpName(k[0]), code.OpName(k[1]), 100*float64(h.pairs[k])/float64(h.instructions))
	}
	fmt.Printf("  top pairs %%:%s\n", b.String())
}

// TestOpcodePairs is `make opcode-pairs`, a tool rather than a test: it
// single-steps every program of both corpora on the quantum-1 reference
// scheduler, reads each task's pc before every instruction, and prints per
// program and for the corpus the most frequent dynamic opcode pairs (a head
// read as its first part) and the share of dispatches the superinstruction
// heads absorb when a slice is long enough to run them whole: at quantum 1
// every head runs as its first part alone, so the trace is the unfused
// program's. The dispatch loop carries no counter for it.
func TestOpcodePairs(t *testing.T) {
	if !*opcodePairs {
		t.Skip("a tool: run with -opcode-pairs (make opcode-pairs)")
	}
	type program struct {
		name, src string
		entries   []string
		heap      int
	}
	var progs []program
	for _, w := range workloads.All {
		progs = append(progs, program{w.Name, w.Source, []string{"main"}, w.HeapWords})
	}
	for _, w := range workloads.Tasking {
		progs = append(progs, program{w.Name, w.Source, w.Entries, w.HeapWords})
	}
	all := &histogram{pairs: map[[2]code.Op]int64{}, absorbed: map[code.Op]int64{}}
	for _, p := range progs {
		g, idx, err := pipeline.BuildTaskGroup(p.src, p.entries, pipeline.Options{Strategy: gc.StratCompiled, HeapWords: p.heap})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range idx {
			g.Spawn(e)
		}
		if err := g.RunInit(); err != nil {
			t.Fatal(err)
		}
		type state struct {
			prev code.Op
			head code.Op
			skip int
		}
		states := map[*tasking.Task]*state{}
		h := &histogram{pairs: map[[2]code.Op]int64{}, absorbed: map[code.Op]int64{}}
		c := g.Prog.Code
		g.Quantum = 1
		instr0 := g.Stats.Instructions
		err = g.RunScanningAllTasksVisiting(func(task *tasking.Task) {
			pc, _, _ := task.Frame()
			op := c[pc]
			s := states[task]
			if s == nil {
				s = &state{prev: -1}
				states[task] = s
			}
			if s.prev >= 0 {
				h.pairs[[2]code.Op{s.prev, code.FirstPart(op)}]++
			}
			s.prev = code.FirstPart(op)
			switch {
			case s.skip > 0:
				// A later part of the head before it: a slice long enough
				// runs it in the head's dispatch.
				s.skip--
				h.absorbed[s.head]++
			case len(heads[op]) > 1 && !(op == code.OpMoveRet && task.InRootFrame()):
				s.head, s.skip = op, len(heads[op])-1
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		h.instructions = g.Stats.Instructions - instr0
		h.print(p.name, 8)
		all.add(h)
	}
	all.print("corpus", 16)
}
