// Package code defines the compiled program representation executed by the
// abstract machine and consumed by the collectors.
//
// The instruction set is a register machine over per-frame slots. Every
// call and allocation instruction embeds a gc_word — the index of that
// site's GC metadata — in the instruction stream at a fixed offset from the
// opcode. The return address a callee stores is the program counter of the
// call instruction itself, so a collector can always recover the gc_word as
// code[retaddr+gcWordOffset], exactly the mechanism of Figure 1 of the
// paper (there: the word at retaddr+8 on SPARC, skipped by the adjusted
// return sequence).
//
// Programs are compiled per value representation:
//
//   - ReprTagFree: integers are full 64-bit words, pointers are raw heap
//     addresses, heap objects have no headers. All type knowledge lives in
//     the compiler-generated GC metadata.
//   - ReprTagged: integers carry a low tag bit (63-bit payload), pointers
//     are shifted, and every heap object carries a header word. Arithmetic
//     uses tag-stripping instruction variants. The collector needs no
//     compiler metadata — this is the baseline the paper argues against.
package code

import (
	"fmt"
	"sort"
)

// Word is the machine word: stack slots, heap cells and code are all words.
type Word = int64

// HeapBase is the numeric value of the first heap address in tag-free mode.
// Values below it in pointer positions are unboxed constants (nullary
// constructor tags, the null placeholder); real addresses are >= HeapBase.
// Real tag-free systems reserve low addresses the same way.
const HeapBase = 1 << 16

// Repr selects the value representation a program is compiled for.
type Repr int

// Value representations.
const (
	ReprTagFree Repr = iota
	ReprTagged
)

// String names the representation.
func (r Repr) String() string {
	if r == ReprTagged {
		return "tagged"
	}
	return "tagfree"
}

// Op is a bytecode opcode.
type Op = Word

// Opcodes. Operand layouts are documented inline; "atom" operands encode a
// slot index, constant-pool index or global index (see EncodeAtom).
const (
	OpHalt      Op = iota // (no operands)
	OpRet                 // atom
	OpJmp                 // target
	OpJz                  // atom, target
	OpMove                // dst, atom
	OpAdd                 // dst, a, b
	OpSub                 // dst, a, b
	OpMul                 // dst, a, b
	OpDiv                 // dst, a, b
	OpMod                 // dst, a, b
	OpNeg                 // dst, a
	OpTAdd                // dst, a, b (tagged: strip tags, add, reinstate)
	OpTSub                // dst, a, b
	OpTMul                // dst, a, b
	OpTDiv                // dst, a, b
	OpTMod                // dst, a, b
	OpTNeg                // dst, a
	OpEq                  // dst, a, b
	OpNe                  // dst, a, b
	OpLt                  // dst, a, b
	OpLe                  // dst, a, b
	OpGt                  // dst, a, b
	OpGe                  // dst, a, b
	OpNot                 // dst, a
	OpIsBoxed             // dst, a
	OpTagIs               // dst, a, tag
	OpLdFld               // dst, a, off
	OpStFld               // aObj, off, aVal
	OpCall                // dst, fidx, gcword, nargs, atoms...
	OpCallC               // dst, gcword, aClos, aArg
	OpMkRef               // dst, gcword, aInit
	OpMkTuple             // dst, gcword, n, atoms...
	OpMkBox               // dst, gcword, tag(-1 none), n, atoms...
	OpMkClos              // dst, gcword, fidx, self(-1 none), nrep, ncap, repAtoms..., capAtoms...
	OpMkRep               // dst, kind, dataOrN, n, childAtoms...
	OpBuiltin             // dst, builtinId, atom
	OpSetGlobal           // gidx, atom
	OpMatchFail           // (no operands)
	OpEnter               // (no operands) zero-fill frame slots (Appel/tagged modes)
)

// gc_word operand offsets from the opcode, per call/alloc opcode.
const (
	GCWordOffsetCall  = 3
	GCWordOffsetOther = 2 // OpCallC, OpMkRef, OpMkTuple, OpMkBox, OpMkClos
)

// GCWordOffset returns the gc_word operand offset for a call/alloc opcode,
// or -1 if the opcode has none.
func GCWordOffset(op Op) int {
	switch op {
	case OpCall:
		return GCWordOffsetCall
	case OpCallC, OpMkRef, OpMkTuple, OpMkBox, OpMkClos:
		return GCWordOffsetOther
	}
	return -1
}

// InstrLen returns the length in words of the instruction at pc (of its first
// part, at a superinstruction head).
func InstrLen(codeArr []Word, pc int) int {
	switch FirstPart(codeArr[pc]) {
	case OpHalt, OpMatchFail, OpEnter:
		return 1
	case OpRet, OpJmp:
		return 2
	case OpJz, OpMove, OpNeg, OpTNeg, OpNot, OpIsBoxed, OpSetGlobal:
		return 3
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpTAdd, OpTSub, OpTMul, OpTDiv,
		OpTMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpTagIs, OpLdFld,
		OpStFld, OpBuiltin:
		return 4
	case OpCall, OpCallC:
		return CallLen(codeArr, pc)
	case OpMkRef:
		return 4
	case OpMkTuple:
		return 4 + int(codeArr[pc+3])
	case OpMkBox:
		return 5 + int(codeArr[pc+4])
	case OpMkClos:
		return 7 + int(codeArr[pc+5]) + int(codeArr[pc+6])
	case OpMkRep:
		return 5 + int(codeArr[pc+4])
	}
	panic(fmt.Sprintf("InstrLen: unknown opcode %d at %d", codeArr[pc], pc))
}

// CallLen is InstrLen for the call instruction at pc, small enough to
// inline into the interpreter's return path: a frame's return address is
// the pc of its call, and execution resumes CallLen words after it.
func CallLen(codeArr []Word, pc int) int {
	if codeArr[pc] == OpCall {
		return 5 + int(codeArr[pc+4])
	}
	return 5
}

// ---------------------------------------------------------------------------
// Atom operand encoding.
// ---------------------------------------------------------------------------

// Atom operand kinds.
const (
	AtomSlot   = 0
	AtomConst  = 1
	AtomGlobal = 2
)

// EncodeAtom packs an operand reference into one word, coded by sign so the
// interpreter reads an operand with one test and one load. A slot is its
// non-negative index into the frame. A global or constant is the complement
// of its index into the run's statics array — the nGlobals global cells, then
// the constant pool (Program.Consts): global g is ^g, constant c is
// ^(nGlobals+c). The global count is fixed before any code is emitted.
func EncodeAtom(kind, idx, nGlobals int) Word {
	switch kind {
	case AtomSlot:
		return Word(idx)
	case AtomConst:
		return ^Word(nGlobals + idx)
	}
	return ^Word(idx)
}

// DecodeAtom unpacks an operand reference encoded for nGlobals globals.
func DecodeAtom(w Word, nGlobals int) (kind, idx int) {
	switch i := int(^w); {
	case w >= 0:
		return AtomSlot, int(w)
	case i < nGlobals:
		return AtomGlobal, i
	default:
		return AtomConst, i - nGlobals
	}
}

// ---------------------------------------------------------------------------
// Type descriptors.
// ---------------------------------------------------------------------------

// TDKind enumerates type-descriptor node kinds.
type TDKind int

// Type descriptor kinds.
const (
	TDConst  TDKind = iota // int, bool, unit, string: never a pointer
	TDOpaque               // parametric position: trace as non-pointer
	TDVar                  // type-environment (or datatype-parameter) reference: Index
	TDRef                  // ref cell: Args[0] is the element
	TDTuple                // tuple: Args are the fields
	TDData                 // datatype: Index is the layout id, Args the parameters
	TDArrow                // function: Args[0] dom, Args[1] cod
)

// TypeDesc is a compiler-emitted type descriptor. Descriptors are
// hash-consed per program, so identical types share one node (the size
// accounting for experiment E4 counts unique nodes).
type TypeDesc struct {
	Kind  TDKind
	Index int
	Args  []*TypeDesc
}

// String renders a descriptor for debugging.
func (d *TypeDesc) String() string {
	switch d.Kind {
	case TDConst:
		return "const"
	case TDOpaque:
		return "opaque"
	case TDVar:
		return fmt.Sprintf("$%d", d.Index)
	case TDRef:
		return fmt.Sprintf("ref(%s)", d.Args[0])
	case TDTuple:
		s := "tuple("
		for i, a := range d.Args {
			if i > 0 {
				s += ", "
			}
			s += a.String()
		}
		return s + ")"
	case TDData:
		s := fmt.Sprintf("data%d(", d.Index)
		for i, a := range d.Args {
			if i > 0 {
				s += ", "
			}
			s += a.String()
		}
		return s + ")"
	case TDArrow:
		return fmt.Sprintf("(%s -> %s)", d.Args[0], d.Args[1])
	}
	return "?"
}

// MayHoldPointer reports whether values of this descriptor's type can
// contain heap pointers (slots whose descriptors cannot are omitted from
// frame maps entirely).
func (d *TypeDesc) MayHoldPointer() bool {
	switch d.Kind {
	case TDConst, TDOpaque:
		return false
	case TDVar:
		// The instantiation may be a pointer type.
		return true
	default:
		return true
	}
}

// ---------------------------------------------------------------------------
// Datatype layouts.
// ---------------------------------------------------------------------------

// DataLayout is the runtime layout of a datatype.
type DataLayout struct {
	Name string
	// HasTagWord is true when boxed values carry a discriminant word at
	// offset 0 (more than one boxed constructor). Datatypes with at most
	// one boxed constructor use the tagless-sum layout.
	HasTagWord bool
	// Boxed holds the boxed constructors indexed by their boxed tag.
	Boxed []CtorLayout
	// NullaryNames maps nullary tags to constructor names (debugging).
	NullaryNames []string
}

// CtorLayout is the layout of one boxed constructor. Field descriptors may
// reference the datatype's parameters via TDVar nodes.
type CtorLayout struct {
	Name   string
	Fields []*TypeDesc
}

// ---------------------------------------------------------------------------
// Functions, sites and programs.
// ---------------------------------------------------------------------------

// TypeSource mirrors ir.TypeSource for the runtime.
type TypeSource int

// Type sources (see the ir package).
const (
	TypeSourceNone TypeSource = iota
	TypeSourceCallSite
	TypeSourceEnv
)

// SlotEntry is one traced slot in a frame map.
type SlotEntry struct {
	Slot int
	Desc *TypeDesc
}

// PathStep mirrors ir.PathStep for runtime type derivation.
type PathStep struct {
	Kind  int // 0 dom, 1 cod, 2 elem
	Index int
}

// FuncInfo is the runtime metadata of one function.
type FuncInfo struct {
	Name    string
	Entry   int
	NParams int // parameter slots, including the closure environment slot
	NSlots  int // all declared slots (params + locals)
	HasEnv  bool
	// NRepArgs is the number of hidden type-rep arguments appended to
	// direct calls (rep-needing top-level polymorphic functions).
	NRepArgs int
	// RepArgBase is the frame slot index of the first hidden rep argument
	// (the IR slot count; compiler scratch slots follow the rep arguments).
	RepArgBase int
	// RepArgPos maps type-environment indexes to hidden-argument positions
	// (-1 when the entry is not passed).
	RepArgPos []int
	// TypeEnvLen is the size of the function's type environment.
	TypeEnvLen int
	OwnVars    int
	TypeSource TypeSource
	// Derivs gives, per type-environment entry, the derivation path into
	// the function's arrow type (nil when the entry is rep-stored).
	Derivs [][]PathStep
	// RepWord maps type-environment indexes to closure rep-word positions
	// (-1 when not stored); NumRepWords words follow the code pointer in
	// the closure layout.
	RepWord     []int
	NumRepWords int
	// Captures are the closure field descriptors (capture types over the
	// function's type environment).
	Captures []*TypeDesc
	// AllSlots lists every pointer-bearing slot with its descriptor —
	// the per-procedure Appel descriptor (traced regardless of liveness).
	AllSlots []SlotEntry
	// NumSites is the function's number of call/alloc sites.
	NumSites int
}

// SiteKind distinguishes call-site metadata shapes.
type SiteKind int

// Site kinds.
const (
	SiteCall  SiteKind = iota // direct call: CalleeInst instantiates the callee
	SiteCallC                 // closure call: SiteType is the closure's static type
	SiteAlloc                 // allocation: no callee
)

// SiteInfo is the GC metadata of one call or allocation site — what the
// paper's gc_word points at.
type SiteInfo struct {
	Func int
	Kind SiteKind
	// Live is the frame map: the pointer-bearing live slots at this site
	// (the §5.2-optimized map used by the compiled and interpreted modes).
	Live []SlotEntry
	// Callee is the direct callee's function index (SiteCall only).
	Callee int
	// CalleeInst instantiates the callee's type environment, expressed
	// over this function's type environment (SiteCall only).
	CalleeInst []*TypeDesc
	// SiteType is the applied closure's static type (SiteCallC only); the
	// collector builds the callee's Figure-4 package from it.
	SiteType *TypeDesc
	// Args lists the call's pointer-bearing slot operands. It is consulted
	// only for tasks suspended *before* the call (tasking mode §4), whose
	// argument values still live in the caller's slots.
	Args []SlotEntry
}

// GlobalInfo describes one global root.
type GlobalInfo struct {
	Name string
	Desc *TypeDesc
}

// BuiltinID identifies runtime builtins.
type BuiltinID = Word

// Builtin identifiers.
const (
	BuiltinPrintInt BuiltinID = iota
	BuiltinPrintBool
	BuiltinPrintString
	BuiltinPrintNewline
)

// BuiltinIDByName maps surface names to builtin ids.
var BuiltinIDByName = map[string]BuiltinID{
	"print_int":     BuiltinPrintInt,
	"print_bool":    BuiltinPrintBool,
	"print_string":  BuiltinPrintString,
	"print_newline": BuiltinPrintNewline,
}

// Program is a compiled program.
type Program struct {
	Repr   Repr
	Code   []Word
	Consts []Word // mode-encoded constants referenced by AtomConst operands
	// Funcs is in code order: function i's instructions run from its Entry
	// to function i+1's (FuncAt searches it).
	Funcs   []*FuncInfo
	Sites   []*SiteInfo
	Globals []GlobalInfo
	Data    []*DataLayout
	Strings []string
	Reps    *RepTable
	// InitFunc and MainFunc are function indexes.
	InitFunc, MainFunc int
	// DescNodes is the number of unique type-descriptor nodes (metadata
	// size accounting, experiment E4).
	DescNodes int
	// StoreDescs maps the pc of a pointer-bearing OpStFld instruction to
	// the static type descriptor of the *stored value* (the field's
	// declared type at the store site). The generational write barrier
	// consults it to type an old→young remembered-set entry without any
	// runtime tags; stores of never-pointer values have no entry, so the
	// barrier skips them for free. Stack slots and globals are absent by
	// design: both are rescanned as roots on every minor collection
	// (the paper's frame-routine model).
	StoreDescs map[int]*TypeDesc
}

// FuncAt returns the index of the function whose code holds pc, or -1. It is
// how diagnostics name a frame from its return address — the lookup the
// collector makes for a frame's gc_word (Figure 1), made for its name.
func (p *Program) FuncAt(pc int) int {
	if pc < 0 || pc >= len(p.Code) {
		return -1
	}
	return sort.Search(len(p.Funcs), func(i int) bool { return p.Funcs[i].Entry > pc }) - 1
}

// FuncByName returns the index of the named function, or -1.
func (p *Program) FuncByName(name string) int {
	for i, f := range p.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}
