// The loop: the repository's one interpreter (DESIGN.md §12, §15). step is the
// dispatch loop, event and cold are what it leaves the loop for, and the rest
// of this file is what the three read — the slice's constants, the operand
// decoders, the hooks after a load or a store, the root frame. Nothing here
// schedules, collects or climbs the recovery ladder: the scheduler hands a
// slice its task and quantum and says whether a wave is up for it (sched.go:
// waved), and the gate grants it allocation windows (gate.go: alloc, settle).
// step's machine code is tuned instruction by instruction; `make
// profile-interp` is the check after any edit to it.

package tasking

import (
	"fmt"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// Events: why the dispatch loop of step handed the instruction at pc to the
// event loop around it.
const (
	evSlice      = iota // the instruction limit is reached
	evCold              // an instruction that calls into Go (Group.cold)
	evDone              // a return from the root frame
	evCall              // a call diverted by a raised Rgc or a spent budget
	evFrame             // a callee frame that ends past the stack array
	evAlloc             // an object that ends past the allocation window
	evLoad              // a field load with a hook to run on the loaded word
	evStore             // a field store with a barrier to run after it
	evDivZero           // a division or modulus by zero
	evBadClosure        // an application of an unboxed word
)

// boolWord encodes r under the representation whose integer tag bit is tag:
// the integers 0 and 1.
func boolWord(tag code.Word, r bool) code.Word {
	if r {
		return tag<<1 | 1
	}
	return tag
}

// jz runs the jz at pc for a compare-and-branch head whose compare found r,
// given the instructions left in the slice, the compare's included: it returns
// where the jz goes and the count it leaves, or — when the slice has no
// instruction left for it — pc itself, so that the next slice runs it.
func jz(c []code.Word, pc int, r bool, left int) (int, int) {
	switch {
	case left < 2:
		return pc, left
	case r:
		return pc + 3, left - 1
	}
	return int(c[pc+2]), left - 1
}

// fieldIndex is the index, in the heap's word array, of field i of the object
// at encoded pointer p: tag is 1 under the tagged representation, which
// shifts its pointers one bit and heads every object with one word, else 0.
func fieldIndex(p, tag code.Word, i int) int {
	return int(p>>(uint(tag)&1)) + int(tag) - code.HeapBase + i
}

// sliceConsts is what the dispatch loop reads and — the allocation window
// aside — never writes. It is one struct so that it lives in step's frame: a struct of more than four fields
// stays in memory and a field is loaded where it is used, which leaves the
// registers to the loop-carried state. As separate locals these values made
// the loop store and reload pc and the count on every instruction
// (`make profile-interp` counts the loop's stack-relative operands).
type sliceConsts struct {
	funcs []*code.FuncInfo
	// mem is the heap's word array, which is replaced only when the heap
	// grows — a rung of the recovery ladder, climbed between slices.
	mem, statics []code.Word
	// tag fixes the value representation — the tag bit of its integers, 0
	// when tag-free: false is tag and true 2·tag+1 (the integers 0 and 1),
	// and fieldIndex has the rest.
	tag  code.Word
	repr code.Repr
	// zeroFill is Group.ZeroFill; stHook says that a field store is followed
	// by its event, divert that a call is.
	zeroFill, stHook, divert bool
	// A field load is followed by its event when ldHook is set and the loaded
	// word can trip a hook: it lies in young (every nursery of a sharded
	// group) and not in own, the task's shard's. ldAll traps every load: a
	// SetDebugAccess heap validates the access itself.
	ldHook, ldAll bool
	young, own    wordRange
	// win is the allocation window: the loop lays objects at win.HP while
	// they end at or before win.Limit, and raises evAlloc — with the field
	// count in need — for the gate to open another (Group.alloc). It is the
	// one part of this struct the loop writes, and it stays a memory operand.
	win  heap.Window
	need int
}

// wordRange is the words lo ≤ w < lo+span.
type wordRange struct{ lo, span uint64 }

func (r wordRange) has(w code.Word) bool { return uint64(w)-r.lo < r.span }

// step executes up to quantum instructions of one task: the dispatch loop of
// the repository's one interpreter (DESIGN.md §12).
//
// The inner loop carries the code, the stack, pc, fp, sp and the instructions
// left in locals, makes no Go call, and implements every instruction that
// needs none — the allocating ones included: an object is laid in the
// allocation window (sliceConsts.win), a bump and a store per field. Anything
// else is an event: the loop writes its state back to the task, event handles
// it with the task as the only state, and the loop is entered again. A hooked
// load or store does its plain work in the loop and raises its event
// afterwards, and an allocation whose window is too short raises its event
// before doing anything (the gate, alloc, opens another window or stops the
// task, and the instruction runs again), so no instruction is implemented
// twice. The objects laid are booked — heap and task counters, the bump
// pointer — whenever the loop is left (settle): every count is exact at
// every event, as the task's own are.
//
// Only the instruction that ends a slice — an allocation suspending its own
// task — can raise a wave, so whether calls are diverted into the suspension
// stub and whether instructions count towards the suspension latency are
// decided once per slice; the group's instruction and Rgc-check counts are
// added when it ends, and the task's own counters are exact at every event.
func (g *Group) step(t *Task, quantum int) error {
	prog, h := g.Prog, g.Heap
	c := prog.Code
	mem, checked := h.Words()
	// Set field by field: a composite literal is built in a temporary and
	// copied into k, a duffzero and a duffcopy of the struct per slice.
	var k sliceConsts
	k.funcs, k.mem, k.statics = prog.Funcs, mem, g.statics
	k.repr, k.tag = prog.Repr, code.EncodeInt(prog.Repr, 0)
	k.zeroFill, k.stHook = g.ZeroFill, h.NurseryEnabled()
	k.ldHook, k.ldAll = g.sharded || checked, checked
	if g.sharded {
		k.young.lo, k.young.span = h.YoungRange(-1)
		k.own.lo, k.own.span = h.YoungRange(t.shard)
	}
	waveUp := g.rgc != 0
	// The Rgc register is added to every call target (SuspendAtCalls):
	// nonzero diverts into the suspension stub (§4). A sharded group has one
	// more register per shard — only the task's own shard's wave parks it.
	// Budgets are enforced at the same safe point, so a spent one diverts
	// calls as well: from the start, or — the step budget — from the
	// instruction that spends it, the slice's divertAt-th.
	atCalls := g.Policy == SuspendAtCalls
	k.divert = atCalls && g.waved(t)
	divertAt := quantum
	if g.spent(t, 0) {
		k.divert = true
	} else if g.BudgetSteps > 0 {
		divertAt = int(min(int64(quantum), g.BudgetSteps-t.Steps))
	}

	steps0, calls0 := t.Steps, t.Calls+t.ClosCalls
	n := 0
	var err error
	for {
		// The loop carries pc, fp, sp and the instructions left; the counters
		// and high-water marks a call or a return touches are updated in the
		// task, off the path from one instruction to the next. The count
		// includes the instruction being dispatched and is spent after it (an
		// event's break skips that, and the count is mended below), so that
		// a superinstruction head spends its further parts from that same
		// value: spent before the switch, the count would live in two
		// registers across it, because the compiler folds a head's decrement
		// into the loop's and keeps the older value (`make profile-interp`).
		stack := t.stack
		pc, fp, sp := t.pc, t.fp, t.sp
		left := quantum - n
		if !k.divert {
			left = divertAt - n
		}
		n += left
		ev := evSlice
	dispatch:
		for ; left > 0; left-- {
			switch c[pc] {
			case code.OpRet:
				ret := int(stack[fp+1])
				if ret < 0 {
					ev = evDone
					break dispatch
				}
				val := operand(stack, k.statics, fp, c[pc+1])
				sp, fp = fp, int(stack[fp])
				t.depth--
				stack[fp+2+int(c[ret+1])] = val
				pc = ret + code.CallLen(c, ret)

			case code.OpJmp:
				pc = int(c[pc+1])

			case code.OpJz:
				// DecodeBool for both representations: false is the smallest
				// boolean word, and no smaller word is true.
				if uint64(operand(stack, k.statics, fp, c[pc+1])) > uint64(k.tag) {
					pc += 3
				} else {
					pc = int(c[pc+2])
				}

			// A superinstruction head (code.Fuse, ISA.md) runs its sequence in
			// one dispatch and counts as its parts: it spends one more
			// instruction of the slice per part after the first and writes
			// every slot they write. Where the slice has too few instructions
			// left for the whole sequence it runs its first part alone and
			// leaves pc on the second, so counts, slice boundaries and every
			// event are the unfused program's. This one is move d, a; jmp L;
			// L: ret d — a join's value returned; a return from the root frame
			// is an event, so there it is its move alone.
			case code.OpMoveRet:
				v := operand(stack, k.statics, fp, c[pc+2])
				stack[fp+2+int(c[pc+1])] = v
				if ret := int(stack[fp+1]); left < 3 || ret < 0 {
					pc += 3
				} else {
					left -= 2
					sp, fp = fp, int(stack[fp])
					t.depth--
					stack[fp+2+int(c[ret+1])] = v
					pc = ret + code.CallLen(c, ret)
				}
			case code.OpMove:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2]), pc+3

			// Tagged variants strip and reinstate the tag bit: add/sub use the
			// classic one-instruction identity, mul/div/mod pay the full strip
			// cost — the paper's "tag manipulation" overhead.
			case code.OpAdd:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])+operand(stack, k.statics, fp, c[pc+3]), pc+4
			case code.OpSub:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])-operand(stack, k.statics, fp, c[pc+3]), pc+4
			case code.OpMul:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])*operand(stack, k.statics, fp, c[pc+3]), pc+4
			case code.OpDiv:
				b := operand(stack, k.statics, fp, c[pc+3])
				if b == 0 {
					ev = evDivZero
					break dispatch
				}
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])/b, pc+4
			case code.OpMod:
				b := operand(stack, k.statics, fp, c[pc+3])
				if b == 0 {
					ev = evDivZero
					break dispatch
				}
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])%b, pc+4
			case code.OpTAdd:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])+operand(stack, k.statics, fp, c[pc+3])-1, pc+4
			case code.OpTSub:
				stack[fp+2+int(c[pc+1])], pc = operand(stack, k.statics, fp, c[pc+2])-operand(stack, k.statics, fp, c[pc+3])+1, pc+4
			case code.OpTMul:
				stack[fp+2+int(c[pc+1])], pc = ((operand(stack, k.statics, fp, c[pc+2])>>1)*(operand(stack, k.statics, fp, c[pc+3])>>1)<<1)|1, pc+4
			case code.OpTDiv:
				b := operand(stack, k.statics, fp, c[pc+3]) >> 1
				if b == 0 {
					ev = evDivZero
					break dispatch
				}
				stack[fp+2+int(c[pc+1])], pc = (operand(stack, k.statics, fp, c[pc+2])>>1)/b<<1|1, pc+4
			case code.OpTMod:
				b := operand(stack, k.statics, fp, c[pc+3]) >> 1
				if b == 0 {
					ev = evDivZero
					break dispatch
				}
				stack[fp+2+int(c[pc+1])], pc = (operand(stack, k.statics, fp, c[pc+2])>>1)%b<<1|1, pc+4
			case code.OpNeg:
				stack[fp+2+int(c[pc+1])], pc = -operand(stack, k.statics, fp, c[pc+2]), pc+3
			case code.OpTNeg:
				stack[fp+2+int(c[pc+1])], pc = 2-operand(stack, k.statics, fp, c[pc+2]), pc+3

			// Heads (see OpMoveRet): a compare, then a jz on its result.
			case code.OpEqJz:
				r := operand(stack, k.statics, fp, c[pc+2]) == operand(stack, k.statics, fp, c[pc+3])
				stack[fp+2+int(c[pc+1])] = boolWord(k.tag, r)
				pc, left = jz(c, pc+4, r, left)
			case code.OpEq:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) == operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpNeJz:
				r := operand(stack, k.statics, fp, c[pc+2]) != operand(stack, k.statics, fp, c[pc+3])
				stack[fp+2+int(c[pc+1])] = boolWord(k.tag, r)
				pc, left = jz(c, pc+4, r, left)
			case code.OpNe:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) != operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpLtJz:
				r := operand(stack, k.statics, fp, c[pc+2]) < operand(stack, k.statics, fp, c[pc+3])
				stack[fp+2+int(c[pc+1])] = boolWord(k.tag, r)
				pc, left = jz(c, pc+4, r, left)
			case code.OpLt:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) < operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpLeJz:
				r := operand(stack, k.statics, fp, c[pc+2]) <= operand(stack, k.statics, fp, c[pc+3])
				stack[fp+2+int(c[pc+1])] = boolWord(k.tag, r)
				pc, left = jz(c, pc+4, r, left)
			case code.OpLe:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) <= operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpGtJz:
				r := operand(stack, k.statics, fp, c[pc+2]) > operand(stack, k.statics, fp, c[pc+3])
				stack[fp+2+int(c[pc+1])] = boolWord(k.tag, r)
				pc, left = jz(c, pc+4, r, left)
			case code.OpGt:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) > operand(stack, k.statics, fp, c[pc+3])), pc+4
			case code.OpGeJz:
				r := operand(stack, k.statics, fp, c[pc+2]) >= operand(stack, k.statics, fp, c[pc+3])
				stack[fp+2+int(c[pc+1])] = boolWord(k.tag, r)
				pc, left = jz(c, pc+4, r, left)
			case code.OpGe:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, operand(stack, k.statics, fp, c[pc+2]) >= operand(stack, k.statics, fp, c[pc+3])), pc+4

			case code.OpNot:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, uint64(operand(stack, k.statics, fp, c[pc+2])) <= uint64(k.tag)), pc+3
			case code.OpIsBoxedJz:
				r := code.IsBoxedValue(k.repr, operand(stack, k.statics, fp, c[pc+2]))
				stack[fp+2+int(c[pc+1])] = boolWord(k.tag, r)
				pc, left = jz(c, pc+3, r, left)
			case code.OpIsBoxed:
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, code.IsBoxedValue(k.repr, operand(stack, k.statics, fp, c[pc+2]))), pc+3

			case code.OpTagIsJz:
				w := k.mem[fieldIndex(operand(stack, k.statics, fp, c[pc+2]), k.tag, 0)] >> (uint(k.tag) & 1)
				r := w == c[pc+3]
				stack[fp+2+int(c[pc+1])] = boolWord(k.tag, r)
				if k.ldAll {
					// Its tagis alone: on a checked heap every load is
					// an event.
					pc, ev = pc+4, evLoad
					break dispatch
				}
				pc, left = jz(c, pc+4, r, left)
			case code.OpTagIs:
				w := k.mem[fieldIndex(operand(stack, k.statics, fp, c[pc+2]), k.tag, 0)] >> (uint(k.tag) & 1)
				stack[fp+2+int(c[pc+1])], pc = boolWord(k.tag, w == c[pc+3]), pc+4
				if k.ldAll {
					ev = evLoad
					break dispatch
				}

			// A head (see OpMoveRet): ldfld d, p, off; move d2, d — a field
			// bound to a variable. Under a load hook it is its ldfld alone,
			// event and all.
			case code.OpLdFldMove:
				if left > 1 && !k.ldHook {
					v := k.mem[fieldIndex(operand(stack, k.statics, fp, c[pc+2]), k.tag, int(c[pc+3]))]
					stack[fp+2+int(c[pc+1])], stack[fp+2+int(c[pc+5])], pc, left = v, v, pc+7, left-1
					break
				}
				fallthrough
			case code.OpLdFld:
				v := k.mem[fieldIndex(operand(stack, k.statics, fp, c[pc+2]), k.tag, int(c[pc+3]))]
				stack[fp+2+int(c[pc+1])], pc = v, pc+4
				if k.ldHook && (k.ldAll || k.young.has(v) && !k.own.has(v)) {
					ev = evLoad
					break dispatch
				}

			case code.OpStFld:
				p := operand(stack, k.statics, fp, c[pc+1])
				k.mem[fieldIndex(p, k.tag, int(c[pc+2]))] = operand(stack, k.statics, fp, c[pc+3])
				pc += 4
				if k.stHook {
					ev = evStore
					break dispatch
				}

			// A call lays the callee's record on top of the stack — dynamic
			// link, return address (the pc of the call itself, from which the
			// collector and the diagnostics recover the frame's gc_word and
			// function), then the slots — and copies the arguments out of the
			// caller's slots.
			case code.OpCall, code.OpCallC:
				if k.divert {
					ev = evCall
					break dispatch
				}
				var fi *code.FuncInfo
				var clos code.Word
				if c[pc] == code.OpCall {
					fi = k.funcs[c[pc+2]]
				} else {
					clos = operand(stack, k.statics, fp, c[pc+3])
					if !code.IsBoxedValue(k.repr, clos) {
						ev = evBadClosure
						break dispatch
					}
					fi = k.funcs[k.mem[fieldIndex(clos, k.tag, 0)]>>(uint(k.tag)&1)]
				}
				nsp := sp + 2 + fi.NSlots
				if nsp > t.MaxStackWords {
					if nsp > len(stack) {
						ev = evFrame
						break dispatch
					}
					t.MaxStackWords = nsp
				}
				stack[sp], stack[sp+1] = code.Word(fp), code.Word(pc)
				if k.zeroFill {
					for j := sp + 2; j < nsp; j++ {
						stack[j] = 0
					}
					t.ZeroFilledWords += int64(fi.NSlots)
				}
				if c[pc] == code.OpCall {
					for j, w := range c[pc+5 : pc+5+int(c[pc+4])] {
						v := operand(stack, k.statics, fp, w)
						if j < fi.NParams {
							stack[sp+2+j] = v
						} else {
							stack[sp+2+fi.RepArgBase+(j-fi.NParams)] = v
						}
					}
					t.Calls++
				} else {
					stack[sp+2], stack[sp+3] = clos, operand(stack, k.statics, fp, c[pc+4])
					t.ClosCalls++
				}
				fp, sp, pc = sp, nsp, fi.Entry
				if t.depth++; t.depth > t.MaxFrameDepth {
					t.MaxFrameDepth = t.depth
				}

			// An object is laid at the head of the allocation window: its
			// header word under the tagged representation, its header field
			// if it has one — a constructor's tag, a closure's function index
			// — then the operands at c[args:], read once the object exists
			// (nothing can intervene: an instruction is not a safe point).
			// One that does not fit is the safe point: the gate opens another
			// window, or a collection happens first, and it runs again.
			//
			// Laying an object needs more registers than the loop can spare,
			// and a value the compiler evicts here it stores where it is
			// defined — for the count, at the head of the loop, on every
			// instruction of every program. So the count is parked in the
			// task for the length of this case and read back where its two
			// paths meet (a load the compiler cannot forward), which keeps it
			// in its register everywhere else (`make profile-interp`). Which
			// path ran is told by full, not by ev: a read of ev inside the loop
			// makes it loop-carried, a store on every instruction.
			case code.OpMkRef, code.OpMkTuple, code.OpMkBox, code.OpMkClos:
				t.parked = left
				args, nargs, hdr := pc+3, 1, false
				switch c[pc] {
				case code.OpMkTuple:
					args, nargs = pc+4, int(c[pc+3])
				case code.OpMkBox:
					args, nargs, hdr = pc+5, int(c[pc+4]), c[pc+3] >= 0
				case code.OpMkClos:
					args, nargs, hdr = pc+7, int(c[pc+5]+c[pc+6]), true
				}
				f := k.win.HP + int(k.tag) // the first operand's word: past the header word
				if hdr {
					f++ // and past the header field
				}
				full := f+nargs > k.win.Limit
				if full {
					k.need = f + nargs - k.win.HP - int(k.tag)
				} else {
					ptr := code.Word(code.HeapBase + k.win.HP)
					if k.tag != 0 {
						k.mem[k.win.HP] = code.Word(f+nargs-k.win.HP-1)<<1 | 1 // odd header: field count
						ptr <<= 1
					}
					if hdr {
						k.mem[f-1] = c[pc+3]*(1+k.tag) | k.tag // EncodeInt, without a shift by a variable
					}
					for i := 0; i < nargs; i++ {
						k.mem[f+i] = operand(stack, k.statics, fp, c[args+i])
					}
					if c[pc] == code.OpMkClos && c[pc+4] >= 0 {
						// The closure captures itself in this capture.
						k.mem[k.win.HP+int(k.tag)+1+int(c[pc+5]+c[pc+4])] = ptr
					}
					if k.win.Sizes != nil {
						k.win.Sizes[k.win.HP] = int32(f + nargs - k.win.HP) // a mark/sweep block's size
					}
					k.win.HP, k.win.Objects = f+nargs, k.win.Objects+1
					stack[fp+2+int(c[pc+1])], pc = ptr, args+nargs
				}
				left = t.parked
				if full {
					ev = evAlloc
					break dispatch
				}

			default:
				ev = evCold
				break dispatch
			}
		}
		n -= left
		if ev != evSlice && ev != evFrame {
			// The instruction that raised the event counts; a call whose frame
			// does not fit has not executed: it runs again on a longer stack.
			n++
		}
		t.pc, t.fp, t.sp = pc, fp, sp
		t.Steps = steps0 + int64(n)
		if k.win.Objects != 0 {
			g.settle(t, &k.win)
		}
		if ev == evSlice {
			if n >= quantum {
				break
			}
			// The step budget's undiverted prefix is over, and the window
			// with it: the next allocation is judged at the gate.
			k.divert, k.win.Limit = true, k.win.HP
		} else if ev == evAlloc {
			// The gate judges the attempt as a counted step. One it grants a
			// window has not executed: it runs again, in the window.
			if !g.alloc(t, &k) {
				break
			}
			n--
		} else if err = g.event(t, ev); err != nil || t.Status != Running {
			break
		}
	}
	g.Stats.Instructions += int64(n)
	if atCalls {
		// Every call dispatched under this policy compared Rgc once; event
		// counted the ones that did not complete.
		g.Stats.RgcChecks += t.Calls + t.ClosCalls - calls0
	}
	if waveUp {
		g.latency += int64(n)
	}
	return err
}

// event handles what the dispatch loop of step left it: the instruction at
// t.pc (or, for the hooks that run after a load or a store, the four words
// before it), with the task written back. The slice ends when it returns an
// error — a runtime fault of the task — or leaves the task not Running.
func (g *Group) event(t *Task, ev int) error {
	c, h := g.Prog.Code, g.Heap
	atom := func(w code.Word) code.Word { return operand(t.stack, g.statics, t.fp, w) }
	switch ev {
	case evCold:
		return g.cold(t)

	case evDone:
		t.Result = atom(c[t.pc+1])
		t.sp = t.fp
		t.depth--
		t.Status = Done

	case evCall:
		// Call dispatch is where a task can be stopped without leaving a
		// half-built frame or heap object: the instruction runs again when a
		// parked task resumes.
		if g.Policy == SuspendAtCalls {
			g.Stats.RgcChecks++
			if g.waved(t) {
				t.Status = SuspendedCall
				return nil
			}
		}
		if !g.spent(t, 0) {
			panic("tasking: call diverted with no wave raised and no budget spent")
		}
		g.faultTask(t, FaultBudget, 0, g.overBudget(t, 0))

	case evFrame:
		t.reserve(len(t.stack) + 1)

	case evLoad:
		// The pointer is still in its slot: a load's destination is a slot the
		// instruction itself defines, and codegen reuses none.
		pc := t.pc - 4
		field, v := int(c[pc+3]), t.stack[t.fp+2+int(c[pc+1])]
		if code.FirstPart(c[pc]) == code.OpTagIs {
			field = 0 // the tag word; v is the boolean, which trips no hook below
		}
		h.Field(atom(c[pc+2]), field) // validates the access on a SetDebugAccess heap
		if g.sharded && h.InYoung(v) && h.YoungShardOf(v) != t.shard {
			// A foreign shard's young pointer just landed on this stack; that
			// shard's minors no longer see all their roots. (The word may be
			// an integer aliasing a young address — the exposure is
			// conservative, see expose.)
			g.expose(v)
		}

	case evStore:
		pc := t.pc - 4
		g.storeBarrier(pc, atom(c[pc+1]), int(c[pc+2]), atom(c[pc+3]))

	case evDivZero:
		return t.errf(g, "division by zero")

	case evBadClosure:
		if g.Policy == SuspendAtCalls {
			g.Stats.RgcChecks++
		}
		return t.errf(g, "application of an undefined recursive closure")
	}
	return nil
}

// cold executes the instruction at t.pc for the dispatch loop: one that calls
// into Go — a type rep to intern, a builtin, a global to set, a trap. None of
// them allocates in the heap or is a safe point; the allocating instructions
// are the loop's own (step), and their safe point is the gate (alloc).
func (g *Group) cold(t *Task) error {
	prog, h := g.Prog, g.Heap
	c, repr := prog.Code, prog.Repr
	stack, pc, fp := t.stack, t.pc, t.fp
	atom := func(w code.Word) code.Word { return operand(stack, g.statics, fp, w) }
	var res code.Word
	next := pc
	switch op := c[pc]; op {
	case code.OpMkRep:
		// The handles go through a stack buffer (Intern copies what it
		// keeps), so a polymorphic call chain allocates nothing on the host.
		var buf [8]int
		children := buf[:0]
		for _, w := range c[pc+5 : pc+5+int(c[pc+4])] {
			children = append(children, int(code.DecodeInt(repr, atom(w))))
		}
		rep := prog.Reps.Intern(code.TDKind(c[pc+2]), int(c[pc+3]), children)
		res, next = code.EncodeInt(repr, int64(rep)), pc+5+len(children)

	case code.OpBuiltin:
		g.builtin(t, c[pc+2], atom(c[pc+3]))
		res, next = code.EncodeInt(repr, 0), pc+4

	case code.OpSetGlobal:
		v := atom(c[pc+2])
		if g.sharded && h.InYoung(v) {
			// Globals are traced during every shard minor, so the stored
			// pointer itself stays sound — but any task can now copy it
			// onto a stack the shard's minors never scan, so the shard
			// must be blocked from here on.
			g.expose(v)
		}
		g.Globals[int(c[pc+1])] = v
		t.pc = pc + 3
		return nil

	case code.OpMatchFail:
		return t.errf(g, "match failure: no pattern matched")

	case code.OpHalt:
		t.Status = Done
		return nil

	default:
		return t.errf(g, "illegal opcode %d", op)
	}
	stack[fp+2+int(c[pc+1])] = res
	t.pc = next
	return nil
}

// storeBarrier runs after an OpStFld on a nursery heap (stHook). Stack slots
// and globals need no barrier — they are re-traced as roots on every
// collection; only interior heap stores can create edges a partial trace
// would miss. The compiler records the stored value's static type per store
// site (Program.StoreDescs), omitting types that cannot hold pointers, so a
// missing descriptor means a dynamic range check would be matching an
// integer that merely aliases a young address.
func (g *Group) storeBarrier(pc int, obj code.Word, field int, v code.Word) {
	h := g.Heap
	if !h.InYoung(v) {
		return
	}
	// Old→young write barrier: only stores that can hold a pointer ever
	// consult the remembered set.
	if d := g.Prog.StoreDescs[pc]; d != nil && h.InOld(obj) {
		g.Col.Remember(obj, field, d)
	}
	if g.Shards > 1 && h.InYoung(obj) && h.YoungShardOf(v) != h.YoungShardOf(obj) {
		// A cross-shard young→young edge: v's shard can no longer
		// collect alone (the edge lives in an object its minors
		// will not trace). Old→young stores need no flag — the
		// remembered set covers them shard-filtered.
		g.expose(v)
	}
}

func (g *Group) builtin(t *Task, id code.BuiltinID, arg code.Word) {
	repr := g.Prog.Repr
	switch id {
	case code.BuiltinPrintInt:
		fmt.Fprintf(&t.Out, "%d", code.DecodeInt(repr, arg))
	case code.BuiltinPrintBool:
		fmt.Fprintf(&t.Out, "%t", code.DecodeBool(repr, arg))
	case code.BuiltinPrintString:
		t.Out.WriteString(g.Prog.Strings[code.DecodeInt(repr, arg)])
	case code.BuiltinPrintNewline:
		t.Out.WriteByte('\n')
	}
}

// enter makes fidx the root frame of a fresh task: the first instruction it
// executes is the function's entry, and returning from it finishes the task.
// The record is laid out as a call lays one out (Figure 1): dynamic link,
// return address, then the slots.
func (g *Group) enter(t *Task, fidx int) {
	fi := g.Prog.Funcs[fidx]
	fp := t.sp
	t.sp = fp + 2 + fi.NSlots
	t.reserve(t.sp)
	t.MaxStackWords = max(t.MaxStackWords, t.sp)
	t.stack[fp], t.stack[fp+1] = -1, -1
	if g.ZeroFill {
		clear(t.stack[fp+2 : t.sp])
		t.ZeroFilledWords += int64(fi.NSlots)
	}
	t.depth++
	t.MaxFrameDepth = max(t.MaxFrameDepth, t.depth)
	t.fp, t.pc = fp, fi.Entry
}

// reserve grows the task's stack array to hold at least sp words.
func (t *Task) reserve(sp int) {
	if sp > len(t.stack) {
		ns := make([]code.Word, sp*2)
		copy(ns, t.stack)
		t.stack = ns
	}
}

// operand reads an instruction operand (code.EncodeAtom): a slot of the frame
// at fp when the word is non-negative, else a cell of the statics array.
func operand(stack, statics []code.Word, fp int, w code.Word) code.Word {
	if w >= 0 {
		return stack[fp+2+int(w)]
	}
	return statics[^w]
}
