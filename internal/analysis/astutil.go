package analysis

// Shared AST utilities for the analyzers: enclosing-function discovery,
// selector rendering, and the lexical lock-held approximation lockedmeta
// builds on.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// enclosingFuncs returns the stack of function nodes (FuncDecl or FuncLit)
// enclosing pos in f, outermost first. Empty when pos sits outside any
// function body (package-level declarations).
func enclosingFuncs(f *ast.File, pos token.Pos) []ast.Node {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return n == nil
		}
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			stack = append(stack, n)
		}
		return true
	})
	return stack
}

// funcBody returns the body of a FuncDecl or FuncLit node.
func funcBody(n ast.Node) *ast.BlockStmt {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// funcName returns the name of a FuncDecl, "" for literals.
func funcName(n ast.Node) string {
	if fd, ok := n.(*ast.FuncDecl); ok {
		return fd.Name.Name
	}
	return ""
}

// baseIdent returns the root identifier of a selector chain (`m` for
// `m.nr`, `op.out` → `op`), or nil for non-identifier bases.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mutexCall matches `<base>.<field>.Lock()` / `Unlock()` / `RLock()` /
// `RUnlock()` shapes and returns the base identifier name and whether the
// call acquires (true) or releases (false). ok is false for anything else.
func mutexCall(call *ast.CallExpr) (base string, acquire, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	id := baseIdent(sel.X)
	if id == nil {
		return "", false, false
	}
	return id.Name, acquire, true
}

// lockHeldAt reports whether, on a straight lexical reading of fn's body, a
// mutex rooted at base identifier `base` is held at pos: a Lock/RLock call
// on `base.*` precedes pos with no intervening Unlock/RUnlock, or a
// `defer base.*.Unlock()` pins it held. This is a deliberate linear
// approximation — branches that unlock early and return read as "released"
// for the code after them — which in practice matches how the engine writes
// its short critical sections; code the approximation misjudges either
// restructures or carries a justified suppression.
func lockHeldAt(fn ast.Node, base string, pos token.Pos) bool {
	body := funcBody(fn)
	if body == nil {
		return false
	}
	held := false
	pinned := false // defer'd Unlock: held through the rest of the function
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() >= pos {
			return false
		}
		// Do not descend into nested function literals: their lock activity
		// happens at call time, not where the literal is written.
		if _, isLit := n.(*ast.FuncLit); isLit && n != fn {
			return false
		}
		switch st := n.(type) {
		case *ast.DeferStmt:
			if b, acquire, ok := mutexCall(st.Call); ok && !acquire && b == base {
				pinned = true
			}
			return false
		case *ast.CallExpr:
			if b, acquire, ok := mutexCall(st); ok && b == base {
				held = acquire
			}
		}
		return true
	})
	return held || pinned
}

// errorType is the predeclared error interface type.
var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is the predeclared error type.
func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// isBoolType reports whether t's underlying type is bool.
func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// calleePkgFunc resolves a call to (package name, function name) when the
// callee is a package-level function accessed through a package selector
// (`faults.Step`, `obs.Begin`), generic ones instantiated explicitly
// included (`pool.GetVals[T]`). ok is false for methods, locals, builtins.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkg, name string, ok bool) {
	fun := call.Fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	sel, isSel := fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", "", false
	}
	return fn.Pkg().Name(), fn.Name(), true
}

// callResults returns the result tuple of a call expression's function
// type, nil when unresolvable.
func callResults(info *types.Info, call *ast.CallExpr) *types.Tuple {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Results()
}
