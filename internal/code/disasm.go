package code

import (
	"fmt"
	"strings"
)

var opNames = map[Op]string{
	OpHalt: "halt", OpRet: "ret", OpJmp: "jmp", OpJz: "jz", OpMove: "move",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpTAdd: "tadd", OpTSub: "tsub", OpTMul: "tmul",
	OpTDiv: "tdiv", OpTMod: "tmod", OpTNeg: "tneg",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpNot: "not", OpIsBoxed: "isboxed", OpTagIs: "tagis",
	OpLdFld: "ldfld", OpStFld: "stfld", OpCall: "call", OpCallC: "callc",
	OpMkRef: "mkref", OpMkTuple: "mktuple", OpMkBox: "mkbox",
	OpMkClos: "mkclos", OpMkRep: "mkrep", OpBuiltin: "builtin",
	OpSetGlobal: "setglobal", OpMatchFail: "matchfail", OpEnter: "enter",
}

// OpName returns the mnemonic of an opcode: a superinstruction head's is its
// first part's.
func OpName(op Op) string {
	if n, ok := opNames[FirstPart(op)]; ok {
		return n
	}
	return fmt.Sprintf("op%d", op)
}

func (p *Program) atomString(w Word) string {
	kind, idx := DecodeAtom(w, len(p.Globals))
	switch kind {
	case AtomSlot:
		return fmt.Sprintf("s%d", idx)
	case AtomConst:
		return fmt.Sprintf("c%d", idx)
	case AtomGlobal:
		return fmt.Sprintf("g%d", idx)
	}
	return fmt.Sprintf("?%d", w)
}

// DisasmInstr renders the instruction at pc, marking embedded gc_words; a
// superinstruction head renders as its first part.
func (p *Program) DisasmInstr(pc int) string {
	c := p.Code
	op := FirstPart(c[pc])
	atomString := p.atomString
	var b strings.Builder
	fmt.Fprintf(&b, "%5d  %-9s", pc, OpName(op))
	switch op {
	case OpRet:
		b.WriteString(atomString(c[pc+1]))
	case OpJmp:
		fmt.Fprintf(&b, "-> %d", c[pc+1])
	case OpJz:
		fmt.Fprintf(&b, "%s -> %d", atomString(c[pc+1]), c[pc+2])
	case OpMove, OpNeg, OpTNeg, OpNot, OpIsBoxed:
		fmt.Fprintf(&b, "s%d, %s", c[pc+1], atomString(c[pc+2]))
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpTAdd, OpTSub, OpTMul, OpTDiv,
		OpTMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		fmt.Fprintf(&b, "s%d, %s, %s", c[pc+1], atomString(c[pc+2]), atomString(c[pc+3]))
	case OpTagIs:
		fmt.Fprintf(&b, "s%d, %s, tag=%d", c[pc+1], atomString(c[pc+2]), c[pc+3])
	case OpLdFld:
		fmt.Fprintf(&b, "s%d, %s[%d]", c[pc+1], atomString(c[pc+2]), c[pc+3])
	case OpStFld:
		fmt.Fprintf(&b, "%s[%d] := %s", atomString(c[pc+1]), c[pc+2], atomString(c[pc+3]))
	case OpCall:
		n := int(c[pc+4])
		args := make([]string, n)
		for i := 0; i < n; i++ {
			args[i] = atomString(c[pc+5+i])
		}
		fmt.Fprintf(&b, "s%d, %s(%s)  ;gc_word=%d", c[pc+1],
			p.Funcs[c[pc+2]].Name, strings.Join(args, ", "), c[pc+3])
	case OpCallC:
		fmt.Fprintf(&b, "s%d, %s(%s)  ;gc_word=%d", c[pc+1],
			atomString(c[pc+3]), atomString(c[pc+4]), c[pc+2])
	case OpMkRef:
		fmt.Fprintf(&b, "s%d, ref(%s)  ;gc_word=%d", c[pc+1], atomString(c[pc+3]), c[pc+2])
	case OpMkTuple:
		n := int(c[pc+3])
		args := make([]string, n)
		for i := 0; i < n; i++ {
			args[i] = atomString(c[pc+4+i])
		}
		fmt.Fprintf(&b, "s%d, (%s)  ;gc_word=%d", c[pc+1], strings.Join(args, ", "), c[pc+2])
	case OpMkBox:
		n := int(c[pc+4])
		args := make([]string, n)
		for i := 0; i < n; i++ {
			args[i] = atomString(c[pc+5+i])
		}
		fmt.Fprintf(&b, "s%d, box tag=%d (%s)  ;gc_word=%d", c[pc+1], c[pc+3],
			strings.Join(args, ", "), c[pc+2])
	case OpMkClos:
		nrep, ncap := int(c[pc+5]), int(c[pc+6])
		parts := make([]string, 0, nrep+ncap)
		for i := 0; i < nrep+ncap; i++ {
			parts = append(parts, atomString(c[pc+7+i]))
		}
		fmt.Fprintf(&b, "s%d, clos %s self=%d [%s]  ;gc_word=%d", c[pc+1],
			p.Funcs[c[pc+3]].Name, c[pc+4], strings.Join(parts, ", "), c[pc+2])
	case OpMkRep:
		n := int(c[pc+4])
		args := make([]string, n)
		for i := 0; i < n; i++ {
			args[i] = atomString(c[pc+5+i])
		}
		fmt.Fprintf(&b, "s%d, rep kind=%d idx=%d (%s)", c[pc+1], c[pc+2], c[pc+3],
			strings.Join(args, ", "))
	case OpBuiltin:
		fmt.Fprintf(&b, "s%d, #%d(%s)", c[pc+1], c[pc+2], atomString(c[pc+3]))
	case OpSetGlobal:
		fmt.Fprintf(&b, "g%d := %s", c[pc+1], atomString(c[pc+2]))
	}
	return b.String()
}

// DisasmFunc renders a whole function.
func (p *Program) DisasmFunc(fidx int) string {
	f := p.Funcs[fidx]
	end := len(p.Code)
	for _, g := range p.Funcs {
		if g.Entry > f.Entry && g.Entry < end {
			end = g.Entry
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: entry=%d slots=%d params=%d\n", f.Name, f.Entry, f.NSlots, f.NParams)
	for pc := f.Entry; pc < end; pc += InstrLen(p.Code, pc) {
		b.WriteString(p.DisasmInstr(pc))
		b.WriteByte('\n')
	}
	return b.String()
}
