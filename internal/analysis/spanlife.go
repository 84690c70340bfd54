package analysis

// spanlife enforces the observability layer's ownership contract: a span
// obtained from obs.Begin must, on every path out of the function that
// opened it, either be delivered (obs.Emit) or handed off (passed to another
// call, stored into a struct, or returned) — otherwise the span leaks,
// SpanOutcomes undercounts, and latency histograms skew toward the
// operations that happened to complete.
//
// The analysis tracks each `sp := obs.Begin(...)` variable through the
// enclosing function body with a small abstract interpreter over the
// statement tree:
//
//   - a method call with sp as the receiver (sp.MarkKernel(), sp.Finish(...))
//     is staging, not retirement — Finish explicitly documents "Emit must
//     still be called";
//   - any other use — sp as a call argument (obs.Emit(sp), or the
//     hand-over to a callee), sp inside a composite literal or assignment
//     RHS, sp returned — retires it;
//   - a defer whose body (or arguments) retires sp pins it retired for every
//     later return, the runScalarReduce shape;
//   - a return reached while sp is live is flagged.
//
// Branch merging is conservative: an if/else retires the span past the
// branch only when both arms retire it on their fall-through paths; loop and
// switch bodies are checked internally but never credit the code after them.
// A Begin result that is never bound (`obs.Begin(name)` as a statement) is
// flagged outright unless it is itself an argument or an assigned value
// (enqueue's `op.span = obs.Begin(name)`).

import (
	"go/ast"
	"go/types"
)

// NewSpanLife returns a fresh spanlife analyzer.
func NewSpanLife() *Analyzer {
	a := &Analyzer{
		Name: "spanlife",
		Doc:  "flags obs.Begin spans that can reach a return without Emit or an ownership handoff",
	}
	a.Run = func(pass *Pass) error {
		if !engineScope(pass.Pkg) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						checkSpans(pass, f, fn.Body)
					}
				case *ast.FuncLit:
					checkSpans(pass, f, fn.Body)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// isBeginCall reports whether call is obs.Begin(...).
func isBeginCall(info *types.Info, call *ast.CallExpr) bool {
	pkg, name, ok := calleePkgFunc(info, call)
	return ok && pkg == "obs" && name == "Begin"
}

// checkSpans finds Begin bindings directly in body (not nested literals —
// those are visited as their own functions) and runs the liveness walk for
// each.
func checkSpans(pass *Pass, file *ast.File, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			// A bare `obs.Begin(op)` statement discards the span entirely.
			if es, isExpr := n.(*ast.ExprStmt); isExpr {
				if call, isCall := es.X.(*ast.CallExpr); isCall && isBeginCall(pass.TypesInfo, call) {
					pass.Reportf(call.Pos(), "span from obs.Begin is discarded; bind it and Emit it (or hand it off) on every path")
				}
			}
			return true
		}
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok || !isBeginCall(pass.TypesInfo, call) || len(st.Lhs) != 1 {
			return true
		}
		id, ok := st.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return true
		}
		w := &spanWalker{pass: pass, span: obj, begin: st}
		w.retires = w.retiresIn
		w.leak = func(ret ast.Stmt) {
			pass.Reportf(ret.Pos(), "span from obs.Begin at line %d may leak: this return is reached without obs.Emit or a handoff", pass.Fset.Position(st.Pos()).Line)
		}
		w.block(body.List, false)
		if !w.started {
			// The Begin statement was nested somewhere the walker did not
			// reach linearly (e.g. inside a branch); fall back to flagging
			// nothing rather than guessing.
			return true
		}
		return true
	})
}

// spanWalker is the abstract interpreter for one tracked resource variable.
// spanlife instantiates it for obs.Begin spans; hotalloc reuses the same
// walk for pooled buffers by supplying its own retire predicate and leak
// reporter. The walk itself is resource-agnostic: it only knows "a binding
// statement starts tracking", "retires says a statement discharges the
// obligation", and "a return reached live leaks".
type spanWalker struct {
	pass    *Pass
	span    types.Object
	begin   ast.Stmt
	started bool // the binding statement has been passed
	pinned  bool // a defer retires the resource on every later exit
	// retires reports whether a statement discharges the obligation.
	retires func(ast.Node) bool
	// leak is invoked for each return reached with the resource live.
	leak func(ret ast.Stmt)
}

// block walks stmts with the given entry state and returns the retired
// state at fall-through.
func (w *spanWalker) block(stmts []ast.Stmt, retired bool) bool {
	for _, st := range stmts {
		retired = w.stmt(st, retired)
	}
	return retired
}

func (w *spanWalker) stmt(st ast.Stmt, retired bool) bool {
	if !w.started {
		// Skip everything before the Begin binding; containers are searched
		// for it.
		if st == w.begin {
			w.started = true
			return false
		}
		switch s := st.(type) {
		case *ast.BlockStmt:
			return w.block(s.List, retired)
		case *ast.IfStmt:
			bodyOut := w.stmt(s.Body, retired)
			if w.started {
				// The span was bound inside this arm; its scope ends with the
				// arm, so the arm's fall-through state is the honest merge.
				return bodyOut
			}
			if s.Else != nil {
				elseOut := w.stmt(s.Else, retired)
				if w.started {
					return elseOut
				}
			}
			return false
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(st, func(n ast.Node) bool {
				if b, ok := n.(*ast.BlockStmt); ok && !w.started {
					w.block(b.List, retired)
				}
				return !w.started
			})
			if w.started {
				// A span bound inside a loop or switch is scoped to it; the
				// returns inside were checked, and nothing after can touch
				// the variable. Stop judging this walker's merges.
				w.pinned = true
			}
			return false
		}
		return false
	}
	switch s := st.(type) {
	case *ast.DeferStmt:
		if w.retires(s) {
			w.pinned = true
			return true
		}
		return retired
	case *ast.ReturnStmt:
		if w.retires(s) {
			return true
		}
		if !retired && !w.pinned {
			w.leak(s)
		}
		return true
	case *ast.BlockStmt:
		return w.block(s.List, retired)
	case *ast.IfStmt:
		bodyOut := w.stmt(s.Body, retired)
		elseOut := retired
		if s.Else != nil {
			elseOut = w.stmt(s.Else, retired)
		}
		// Credit the merge only when both arms retire; an arm that always
		// returns reports its own leaks and its fall-through never happens,
		// but distinguishing that shape is not worth the complexity —
		// terminated arms return true above, which is also correct here.
		if s.Else != nil {
			return retired || (bodyOut && elseOut)
		}
		return retired
	case *ast.ForStmt:
		w.stmt(s.Body, retired)
		return retired
	case *ast.RangeStmt:
		w.stmt(s.Body, retired)
		return retired
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				w.block(cc.Body, retired)
				return false
			}
			if cc, ok := n.(*ast.CommClause); ok {
				w.block(cc.Body, retired)
				return false
			}
			return true
		})
		return retired
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, retired)
	default:
		if w.retires(st) {
			return true
		}
		return retired
	}
}

// retiresIn reports whether n contains a retiring use of the span variable:
// any mention that is not the receiver of a method call.
func (w *spanWalker) retiresIn(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		// A selector whose base is the span var is a receiver/field use —
		// staging, not retirement. Skip the base identifier so the generic
		// ident check below does not see it.
		if sel, ok := m.(*ast.SelectorExpr); ok {
			if id, isID := unparen(sel.X).(*ast.Ident); isID && w.isSpan(id) {
				return false
			}
			return true
		}
		if id, ok := m.(*ast.Ident); ok && w.isSpan(id) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (w *spanWalker) isSpan(id *ast.Ident) bool {
	return w.pass.TypesInfo.Uses[id] == w.span
}
