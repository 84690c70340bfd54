package analysis

// idxshare holds the sparse package to the one way a vector takes another
// vector's positions. A Vec's index list may come from the pool, and a
// pooled list carries a hold count that the last store to let go of it
// turns into a recycle: every store holding the list must have been
// counted, or the list goes back to the shelves while a vector still reads
// it. The counting helper is shareIdx; inside the package the pass reports
//
//   - an assignment of one Vec's Idx — bare, resliced or parenthesized —
//     to another Vec's Idx field, or to the Idx of a Vec literal;
//   - a call to pooledVec, which adopts a freshly drawn list as the result's
//     own, passing a Vec's Idx as that list.
//
// A Vec writing its own Idx (v.Idx = v.Idx[:p:p], out.Idx = append(out.Idx,
// i)) is not sharing, and shareIdx itself is exempt. The check follows the
// expression, not data flow through local variables.

import (
	"go/ast"
	"go/types"
	"strings"
)

// idxShareHelper is the counting helper; idxAdopter the constructor that
// takes a drawn list as its result's own.
const (
	idxShareHelper = "shareIdx"
	idxAdopter     = "pooledVec"
)

// NewIdxShare returns a fresh idxshare analyzer.
func NewIdxShare() *Analyzer {
	a := &Analyzer{
		Name: "idxshare",
		Doc:  "flags a sparse Vec taking another Vec's Idx other than through shareIdx",
	}
	a.Run = func(pass *Pass) error {
		if !sparseScope(pass.Pkg) {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == idxShareHelper {
					continue
				}
				checkIdxShare(pass, fd.Body)
			}
		}
		return nil
	}
	return a
}

// sparseScope reports whether the pass applies: the engine's sparse
// package, or a single-segment golden package.
func sparseScope(pkg *types.Package) bool {
	path := pkg.Path()
	return path == "graphblas/internal/sparse" || !strings.Contains(path, "/")
}

func checkIdxShare(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for k, lhs := range n.Lhs {
				dst, ok := vecIdx(pass.TypesInfo, lhs)
				if !ok {
					continue
				}
				if src, ok := vecIdx(pass.TypesInfo, stripSlices(n.Rhs[k])); ok && !sameExpr(src, dst) {
					pass.Reportf(n.Rhs[k].Pos(), "%s's Idx taken by %s without %s: a pooled list's hold count misses this store", types.ExprString(src), types.ExprString(dst), idxShareHelper)
				}
			}
		case *ast.CompositeLit:
			if !isVecType(pass.TypesInfo.TypeOf(n)) {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Idx" {
					continue
				}
				if src, ok := vecIdx(pass.TypesInfo, stripSlices(kv.Value)); ok {
					pass.Reportf(kv.Value.Pos(), "%s's Idx taken by a Vec literal without %s: a pooled list's hold count misses this store", types.ExprString(src), idxShareHelper)
				}
			}
		case *ast.CallExpr:
			if id := calleeIdent(n.Fun); id == nil || id.Name != idxAdopter || len(n.Args) < 2 {
				return true
			}
			if src, ok := vecIdx(pass.TypesInfo, stripSlices(n.Args[1])); ok {
				pass.Reportf(n.Args[1].Pos(), "%s adopts %s's Idx as a fresh list: the list would have two owners", idxAdopter, types.ExprString(src))
			}
		}
		return true
	})
}

// vecIdx reports whether e is the Idx field of a Vec, returning the Vec
// operand.
func vecIdx(info *types.Info, e ast.Expr) (ast.Expr, bool) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Idx" || !isVecType(info.TypeOf(sel.X)) {
		return nil, false
	}
	return sel.X, true
}

// isVecType reports whether t is Vec, *Vec or an instance of either.
func isVecType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Vec"
}

// stripSlices removes parentheses and slice expressions around e:
// x.Idx[:n:n] aliases x.Idx.
func stripSlices(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// calleeIdent returns the function name a call goes to, through explicit
// type arguments (pooledVec[T](…)), or nil for a method or a value.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.IndexExpr:
		return calleeIdent(f.X)
	case *ast.IndexListExpr:
		return calleeIdent(f.X)
	}
	return nil
}

// sameExpr reports whether two operand expressions name the same variable
// path (v and v, w.out and w.out).
func sameExpr(a, b ast.Expr) bool { return types.ExprString(a) == types.ExprString(b) }
