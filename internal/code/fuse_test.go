package code

import (
	"slices"
	"testing"
)

// TestFuse runs Fuse over a code stream with every sequence it matches and
// near misses of each, operand words equal to head opcodes sitting where it
// must not look: only the opcode words of the matched first parts change,
// into their heads; heads read as their first parts; a second pass changes
// nothing; Unfuse restores the stream.
func TestFuse(t *testing.T) {
	orig := []Word{
		OpEq, 1, 2, 3, OpJz, 1, 40, // 0: eq→jz
		OpLt, 1, 2, 3, OpJz, 2, 40, // 7: jz tests another slot
		OpIsBoxed, 4, 5, OpJz, 4, 0, // 14: isboxed→jz
		OpTagIs, 6, 7, OpGeJz, OpJz, 6, 0, // 20: tagis→jz; the tag operand reads as a head
		OpGe, 1, 2, 3, OpNot, 1, 1, // 27: no jz after it
		OpMove, 8, OpMoveRet, OpJmp, 46, // 34: move→jmp→ret (ret at 46)
		OpMove, 9, 3, OpJmp, 48, // 39: the ret at 48 returns another slot
		OpRet, 8, // 44
		OpRet, 8, // 46
		OpRet, 3, // 48
		OpLdFld, 10, 11, 1, OpMove, 12, 10, // 50: ldfld→move
		OpLdFld, 13, 11, 2, OpMove, 12, 11, // 57: the move copies another slot
		OpLdFld, 14, 11, 0, OpMove, 15, 14, OpJmp, 73, // 64: ldfld→move whose move heads a move→ret
		OpRet, 15, // 73
		OpNe, 1, 2, 3, // 75: the stream ends before its jz
	}
	heads := map[int]Op{0: OpEqJz, 14: OpIsBoxedJz, 20: OpTagIsJz, 34: OpMoveRet, 50: OpLdFldMove, 64: OpLdFldMove, 68: OpMoveRet}
	c := slices.Clone(orig)
	Fuse(c)
	for pc := range c {
		want := orig[pc]
		if h, ok := heads[pc]; ok {
			want = h
		}
		if c[pc] != want {
			t.Errorf("word %d: Fuse wrote %d, want %d", pc, c[pc], want)
		}
	}
	for pc := 0; pc < len(c); pc += InstrLen(c, pc) {
		if InstrLen(c, pc) != InstrLen(orig, pc) || OpName(c[pc]) != OpName(orig[pc]) {
			t.Errorf("pc %d: a head must read as its first part", pc)
		}
	}
	again := slices.Clone(c)
	Fuse(again)
	if !slices.Equal(again, c) {
		t.Errorf("Fuse is not idempotent:\n once %v\ntwice %v", c, again)
	}
	Unfuse(c)
	if !slices.Equal(c, orig) {
		t.Errorf("Unfuse(Fuse(c)) != c:\n got %v\nwant %v", c, orig)
	}
}

// TestHeadsReadAsFirstParts: every head names itself as its first part, which
// is no head.
func TestHeadsReadAsFirstParts(t *testing.T) {
	for op := OpEqJz; op <= OpLdFldMove; op++ {
		first := FirstPart(op)
		if first == op || FirstPart(first) != first || OpName(op) != OpName(first) {
			t.Errorf("head %d: first part %d (%s)", op, first, OpName(first))
		}
	}
	if FirstPart(OpEnter) != OpEnter || FirstPart(OpLdFldMove+1) != OpLdFldMove+1 {
		t.Error("an opcode that is no head must be its own first part")
	}
}
