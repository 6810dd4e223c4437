package code

// Superinstructions (ISA.md, DESIGN.md §12). A head is the opcode word of the
// first instruction of a sequence the interpreter executes in one dispatch and
// counts as its parts. Fuse writes heads over the first parts' opcode words and
// nothing else: every part keeps its own words, so a jump into the middle of a
// sequence, a slice that ends inside it or a hook that stops after its first
// part resumes on an ordinary instruction. Everything that reads the code but
// the dispatch loop — InstrLen, OpName, the disassembler — sees a head as its
// first part. Calls and allocations are never heads: the gc_word at a return
// address and the instruction it belongs to are what they were.
const (
	OpEqJz      Op = OpEnter + 1 + iota // eq d, a, b; jz d -> L
	OpNeJz                              // ne d, a, b; jz d -> L
	OpLtJz                              // lt d, a, b; jz d -> L
	OpLeJz                              // le d, a, b; jz d -> L
	OpGtJz                              // gt d, a, b; jz d -> L
	OpGeJz                              // ge d, a, b; jz d -> L
	OpIsBoxedJz                         // isboxed d, a; jz d -> L
	OpTagIsJz                           // tagis d, a, tag; jz d -> L
	OpMoveRet                           // move d, a; jmp L — where L: ret d
	OpLdFldMove                         // ldfld d, p, off; move d2, d
)

// firstParts maps each head, from OpEqJz on, to the opcode of its first part.
var firstParts = [...]Op{
	OpEqJz - OpEqJz: OpEq, OpNeJz - OpEqJz: OpNe, OpLtJz - OpEqJz: OpLt,
	OpLeJz - OpEqJz: OpLe, OpGtJz - OpEqJz: OpGt, OpGeJz - OpEqJz: OpGe,
	OpIsBoxedJz - OpEqJz: OpIsBoxed, OpTagIsJz - OpEqJz: OpTagIs, OpMoveRet - OpEqJz: OpMove,
	OpLdFldMove - OpEqJz: OpLdFld,
}

// FirstPart returns the opcode of a head's first part, or op itself when op is
// not a head.
func FirstPart(op Op) Op {
	if i := op - OpEqJz; i >= 0 && i < Op(len(firstParts)) {
		return firstParts[i]
	}
	return op
}

// Fuse writes a head over the opcode word of every instruction that starts one
// of the sequences above, and over no other word. It is idempotent, and the
// code runs as it did before: the dispatch loop executes a head as its parts.
func Fuse(c []Word) {
	for pc := 0; pc < len(c); pc += InstrLen(c, pc) {
		c[pc] = head(c, pc)
	}
}

// Unfuse is Fuse undone: every head is its first part again.
func Unfuse(c []Word) {
	for pc := 0; pc < len(c); pc += InstrLen(c, pc) {
		c[pc] = FirstPart(c[pc])
	}
}

// head returns the head that the instruction at pc starts, or its own first
// part when it starts none. A sequence matches on its parts' first parts, so a
// part that is itself a head (the move of an ldfld→move may head a move→ret)
// and a second pass over fused code match what the first pass matched.
func head(c []Word, pc int) Op {
	op := FirstPart(c[pc])
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIsBoxed, OpTagIs:
		// The jz tests the slot the compare defines.
		if jz := pc + InstrLen(c, pc); jz+2 < len(c) && FirstPart(c[jz]) == OpJz && c[jz+1] == c[pc+1] {
			switch op {
			case OpIsBoxed:
				return OpIsBoxedJz
			case OpTagIs:
				return OpTagIsJz
			}
			return OpEqJz + op - OpEq
		}
	case OpMove:
		// The jump lands on a return of the slot the move defines.
		if jmp := pc + 3; jmp+1 < len(c) && FirstPart(c[jmp]) == OpJmp {
			if l := int(c[jmp+1]); l >= 0 && l+1 < len(c) && FirstPart(c[l]) == OpRet && c[l+1] == c[pc+1] {
				return OpMoveRet
			}
		}
	case OpLdFld:
		// The move copies the slot the load defines.
		if mv := pc + 4; mv+2 < len(c) && FirstPart(c[mv]) == OpMove && c[mv+2] == c[pc+1] {
			return OpLdFldMove
		}
	}
	return op
}
