package lint

// program.go is the interprocedural layer under lazlint's protocol-
// invariant rules. The original suite (PR 4) saw one function at a time,
// which is exactly why it could not catch the PR 6–9 bug classes: an
// authentication check lives in verify.go while the state mutation it
// guards lives in order.go, and a quorum tally is filled in one handler
// but counted in another. BuildProgram walks every loaded package once
// and produces, per function:
//
//   - a call graph (direct callees with call sites, plus reverse edges),
//   - the set of local objects derived from the receiver and from any
//     *Message-typed parameter (a one-function taint approximation:
//     `in := r.inst(seq)` makes `in` receiver-derived, `req := *msg.Request`
//     makes `req` message-derived),
//   - summary flags closed transitively over the call graph: whether the
//     function may perform signature verification, mutate its receiver,
//     send on the network, check membership, window-compare a parameter,
//     or compare a message's epoch/view against local state.
//
// The analysis is deliberately flow-approximate (source order stands in
// for dominance) and under-binds aliases; rules built on it trade missed
// corner cases for a near-zero false-positive rate, with justified
// `//lazlint:allow` directives as the escape hatch where a protocol
// deliberately breaks the pattern (e.g. cross-epoch checkpoint votes).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole loaded module plus its interprocedural indexes.
type Program struct {
	Pkgs []*Package
	// Funcs maps every function/method with a body to its analysis.
	Funcs map[*types.Func]*FuncInfo
}

// CallSite is one direct call edge in the call graph.
type CallSite struct {
	Caller *FuncInfo
	Callee *types.Func
	Call   *ast.CallExpr
	// RecvRooted reports whether the call's receiver expression is
	// derived from the caller's own receiver (r.inst(..), r.ins.viewChanges.Inc).
	RecvRooted bool
}

// FuncInfo is the per-function summary.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	Calls   []*CallSite
	Callers []*CallSite

	// RecvObj is the receiver variable (nil for plain functions).
	RecvObj types.Object
	// RecvDerived holds RecvObj plus locals assigned from receiver-
	// derived expressions.
	RecvDerived map[types.Object]bool
	// MsgDerived holds the *Message-typed parameters plus locals
	// assigned from message-derived expressions.
	MsgDerived map[types.Object]bool
	// Params are the declared parameter objects in order.
	Params []types.Object

	// Direct facts (this body only).
	VerifiesDirect     bool // calls something named Verify/VerifySig
	MutatesRecvDirect  bool // assigns through a receiver-derived path
	SendsNetDirect     bool // calls something named Send
	ChecksMemberDirect bool // calls Contains or comma-ok indexes a Keys map
	// TwoSidedParam: some parameter is bounded from below AND above by
	// ordered comparisons in this body (the inWindow shape).
	TwoSidedParam bool
	// ComparesMsgState: compares a message-derived Epoch/View/NewView
	// field against anything.
	ComparesMsgState bool

	// Transitive closures over the call graph.
	Verifies         bool
	MutatesRecv      bool // direct, or a receiver-rooted call to a mutator
	SendsNet         bool
	ChecksMembership bool
}

// BuildProgram analyzes every function in the loaded packages.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, Funcs: map[*types.Func]*FuncInfo{}}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				prog.Funcs[obj] = analyzeFunc(p, fd, obj)
			}
		}
	}
	// Reverse edges.
	for _, info := range prog.Funcs {
		for _, cs := range info.Calls {
			if callee, ok := prog.Funcs[cs.Callee]; ok {
				callee.Callers = append(callee.Callers, cs)
			}
		}
	}
	// Deterministic caller order (build order follows map iteration).
	for _, info := range prog.Funcs {
		sort.Slice(info.Callers, func(i, j int) bool {
			return info.Callers[i].Call.Pos() < info.Callers[j].Call.Pos()
		})
	}
	prog.closeSummaries()
	return prog
}

// FuncOf returns the analysis for a resolved function, or nil.
func (prog *Program) FuncOf(f *types.Func) *FuncInfo {
	if f == nil {
		return nil
	}
	return prog.Funcs[f]
}

// PackageOf finds the loaded package with the given import-path suffix.
func (prog *Program) PackageOf(suffix string) *Package {
	for _, p := range prog.Pkgs {
		if pathHasSuffix(p.Path, suffix) {
			return p
		}
	}
	return nil
}

// SortedFuncs returns every analyzed function in source order — rules
// iterate this instead of the Funcs map so findings are deterministic.
func (prog *Program) SortedFuncs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(prog.Funcs))
	for _, info := range prog.Funcs {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

func analyzeFunc(p *Package, fd *ast.FuncDecl, obj *types.Func) *FuncInfo {
	info := &FuncInfo{Obj: obj, Decl: fd, Pkg: p}

	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		info.RecvObj = p.Info.Defs[fd.Recv.List[0].Names[0]]
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if o := p.Info.Defs[name]; o != nil {
				info.Params = append(info.Params, o)
			}
		}
	}

	recvSeeds := map[types.Object]bool{}
	if info.RecvObj != nil {
		recvSeeds[info.RecvObj] = true
	}
	msgSeeds := map[types.Object]bool{}
	for _, o := range info.Params {
		if isNamedType(o.Type(), "Message") {
			msgSeeds[o] = true
		}
	}
	info.RecvDerived = derivedSet(p, fd.Body, recvSeeds)
	info.MsgDerived = derivedSet(p, fd.Body, msgSeeds)

	lower := map[types.Object]bool{}
	upper := map[types.Object]bool{}
	paramSet := map[types.Object]bool{}
	for _, o := range info.Params {
		paramSet[o] = true
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := calleeFunc(p.Info, n)
			if callee != nil {
				cs := &CallSite{Caller: info, Callee: callee, Call: n}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					cs.RecvRooted = usesAny(p.Info, sel.X, info.RecvDerived)
				}
				info.Calls = append(info.Calls, cs)
				switch callee.Name() {
				case "Verify", "VerifySig":
					info.VerifiesDirect = true
				case "Contains":
					info.ChecksMemberDirect = true
				case "Send":
					info.SendsNetDirect = true
				}
			} else if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if rootedIn(p.Info, n.Args[0], info.RecvDerived) {
					info.MutatesRecvDirect = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, bare := lhs.(*ast.Ident); bare {
					continue // binding a local is not a receiver mutation
				}
				if rootedIn(p.Info, lhs, info.RecvDerived) {
					info.MutatesRecvDirect = true
				}
			}
		case *ast.IncDecStmt:
			if _, bare := n.X.(*ast.Ident); !bare && rootedIn(p.Info, n.X, info.RecvDerived) {
				info.MutatesRecvDirect = true
			}
		case *ast.IndexExpr:
			// Comma-ok read of a field named Keys: the membership-lookup
			// idiom (`pub, ok := r.membership.Keys[id]`).
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "Keys" {
				info.ChecksMemberDirect = true
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				classifyBound(p.Info, n, paramSet, lower, upper)
				info.ComparesMsgState = info.ComparesMsgState || comparesMsgField(p.Info, n, info.MsgDerived)
			case token.EQL, token.NEQ:
				info.ComparesMsgState = info.ComparesMsgState || comparesMsgField(p.Info, n, info.MsgDerived)
			}
		}
		return true
	})
	for o := range lower {
		if upper[o] {
			info.TwoSidedParam = true
		}
	}
	return info
}

// classifyBound records which side of an ordered comparison a parameter
// sits on: `p > x` / `x < p` bound p from below, `p < x` / `x > p` from
// above. A parameter bounded both ways is window-checked (inWindow).
func classifyBound(ti *types.Info, b *ast.BinaryExpr, params, lower, upper map[types.Object]bool) {
	mark := func(e ast.Expr, isUpper bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		o := ti.Uses[id]
		if o == nil || !params[o] {
			return
		}
		if isUpper {
			upper[o] = true
		} else {
			lower[o] = true
		}
	}
	switch b.Op {
	case token.LSS, token.LEQ: // X < Y: X bounded above, Y below
		mark(b.X, true)
		mark(b.Y, false)
	case token.GTR, token.GEQ: // X > Y: X bounded below, Y above
		mark(b.X, false)
		mark(b.Y, true)
	}
}

// comparesMsgField reports whether either operand is a selector of a
// protocol-state field (Epoch/View/NewView) on a message-derived value.
func comparesMsgField(ti *types.Info, b *ast.BinaryExpr, msgDerived map[types.Object]bool) bool {
	for _, e := range []ast.Expr{b.X, b.Y} {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Epoch", "View", "NewView":
				if usesAny(ti, sel.X, msgDerived) {
					return true
				}
			}
		}
	}
	return false
}

// closeSummaries propagates the direct facts over the call graph to a
// fixed point. Verifies/SendsNet/ChecksMembership flow through every
// edge; MutatesRecv flows only through receiver-rooted calls (a callee
// that mutates ITS receiver mutates ours only when invoked on a value
// derived from ours).
func (prog *Program) closeSummaries() {
	for _, info := range prog.Funcs {
		info.Verifies = info.VerifiesDirect
		info.SendsNet = info.SendsNetDirect
		info.ChecksMembership = info.ChecksMemberDirect
		info.MutatesRecv = info.MutatesRecvDirect
	}
	for changed := true; changed; {
		changed = false
		for _, info := range prog.Funcs {
			for _, cs := range info.Calls {
				callee := prog.Funcs[cs.Callee]
				if callee == nil {
					continue
				}
				if callee.Verifies && !info.Verifies {
					info.Verifies = true
					changed = true
				}
				if callee.SendsNet && !info.SendsNet {
					info.SendsNet = true
					changed = true
				}
				if callee.ChecksMembership && !info.ChecksMembership {
					info.ChecksMembership = true
					changed = true
				}
				if cs.RecvRooted && callee.MutatesRecv && !info.MutatesRecv {
					info.MutatesRecv = true
					changed = true
				}
			}
		}
	}
}

// derivedSet computes the objects transitively assigned from the seeds
// within one function body (flow-insensitive fixpoint over assignments
// and range bindings).
func derivedSet(p *Package, body ast.Node, seeds map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(seeds))
	for o := range seeds {
		out[o] = true
	}
	if len(seeds) == 0 {
		return out
	}
	bind := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		o := p.Info.Defs[id]
		if o == nil {
			o = p.Info.Uses[id]
		}
		if o == nil || out[o] {
			return false
		}
		out[o] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					var rhs ast.Node
					if len(st.Rhs) == len(st.Lhs) {
						rhs = st.Rhs[i]
					} else if len(st.Rhs) == 1 {
						rhs = st.Rhs[0]
					}
					if rhs != nil && usesAny(p.Info, rhs, out) && bind(lhs) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if usesAny(p.Info, st.X, out) {
					for _, kv := range []ast.Expr{st.Key, st.Value} {
						if kv != nil && bind(kv) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// rootedIn unwraps selectors/indexes/derefs to the base identifier and
// reports whether it is one of the given objects.
func rootedIn(ti *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			o := ti.Uses[x]
			if o == nil {
				o = ti.Defs[x]
			}
			return o != nil && objs[o]
		default:
			return false
		}
	}
}

// isNamedType reports whether t (possibly behind a pointer) is a named
// type with the given name, in any package. Name-based matching lets the
// rules recognize both the production types and test-fixture doubles.
func isNamedType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Name() == name
}

// isDigestType reports whether the type's name contains "Digest" —
// matching bft.Digest and any fixture double.
func isDigestType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && strings.Contains(named.Obj().Name(), "Digest")
}

// isHandler reports whether the function is an inbox message handler:
// a method named on<X> taking a *Message parameter. Returns the message
// parameter object.
func (fi *FuncInfo) isHandler() (types.Object, bool) {
	if fi.Decl.Recv == nil || fi.RecvObj == nil {
		return nil, false
	}
	name := fi.Obj.Name()
	if !strings.HasPrefix(name, "on") || len(name) < 3 || name[2] < 'A' || name[2] > 'Z' {
		return nil, false
	}
	for _, o := range fi.Params {
		if isNamedType(o.Type(), "Message") {
			return o, true
		}
	}
	return nil, false
}
