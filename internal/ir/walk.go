package ir

// WalkExprs visits every node of a body tree in preorder.
func WalkExprs(body Expr, visit func(Expr)) {
	if body == nil {
		return
	}
	visit(body)
	switch e := body.(type) {
	case *ELet:
		WalkExprs(e.Cont, visit)
	case *ECond:
		WalkExprs(e.Then, visit)
		WalkExprs(e.Else, visit)
		WalkExprs(e.Cont, visit)
	}
}

// WalkRhss calls visit on every computation in the function body, in
// preorder, until visit returns false. It allocates nothing: the compiler's
// passes walk bodies with it instead of materialising them.
func WalkRhss(f *Func, visit func(Rhs) bool) { walkRhss(f.Body, visit) }

func walkRhss(e Expr, visit func(Rhs) bool) bool {
	for {
		switch n := e.(type) {
		case *ELet:
			if !visit(n.Rhs) {
				return false
			}
			e = n.Cont
		case *ECond:
			if !walkRhss(n.Then, visit) || !walkRhss(n.Else, visit) {
				return false
			}
			e = n.Cont
		default:
			return true
		}
	}
}

// Rhss returns every computation in the function body, in preorder: WalkRhss
// as a list, for tests and tools.
func Rhss(f *Func) []Rhs {
	var out []Rhs
	WalkRhss(f, func(r Rhs) bool {
		out = append(out, r)
		return true
	})
	return out
}

// WalkAtoms calls visit on each operand atom of a computation, in operand
// order.
func WalkAtoms(r Rhs, visit func(Atom)) {
	each := func(as []Atom) {
		for _, a := range as {
			visit(a)
		}
	}
	switch r := r.(type) {
	case *RAtom:
		visit(r.A)
	case *RPrim:
		each(r.Args)
	case *RRef:
		visit(r.Init)
	case *RDeref:
		visit(r.Ref)
	case *RAssign:
		visit(r.Ref)
		visit(r.Val)
	case *RTuple:
		each(r.Elems)
	case *RCtor:
		each(r.Args)
	case *RField:
		visit(r.Obj)
	case *RClosure:
		each(r.Captures)
	case *RCall:
		each(r.Args)
	case *RCallClos:
		visit(r.Clos)
		visit(r.Arg)
	case *RBuiltin:
		each(r.Args)
	case *RSetGlobal:
		visit(r.Val)
	case *RPatchCapture:
		visit(r.Clos)
		visit(r.Val)
	}
}
