package analysis

// fusecap verifies the fusion-capability declarations attached to an
// operation's spec (opSpec.fuse) against what the skeleton was handed.
// Fusion stubs the producer and lets the consumer evaluate the producer's
// computation inline, so three structural invariants must hold at every
// enqueue site that attaches a fuseInfo:
//
//   - The fusion source (the operand named by srcID) must be one of the
//     inputs the op handed the skeleton — dataflow.FuseLegal reasons
//     entirely from the derived footprints, so a srcID outside them would
//     let fusion elide a store the hazard DAG never proved dead.
//   - When the op takes a mask, the consume capability must be withheld
//     whenever the mask aliases the fusion source: a fused kernel resolves
//     the mask from the source's committed store while streaming the
//     source's fresh values (the PR 9 bug). Structurally: every assignment
//     to the consume field must sit under a guard condition that implies
//     either mask == nil or mask.obj.id != src.obj.id.
//   - The consume callback (and the run/chained closures it builds) must
//     never touch the fusion source itself: when the pair actually fuses,
//     the producer is a stub and the source's committed store is stale —
//     the payload is the only valid view of its content.
//
// The guard check evaluates the engine's boolean idioms precisely:
// `mask == nil || mask.obj.id != u.obj.id` is protective because each
// disjunct independently rules out the alias; `mask == nil || accumDefined`
// is not. Conditions are judged only when the consume assignment sits in the
// if's then-branch (an else-branch sees the condition false).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewFuseCap returns a fresh fusecap analyzer.
func NewFuseCap() *Analyzer {
	a := &Analyzer{
		Name: "fusecap",
		Doc:  "verifies opSpec.fuse capability declarations: source among the handed inputs, mask-alias veto, no stale source reads in consume",
	}
	a.Run = func(pass *Pass) error {
		if !engineScope(pass.Pkg) {
			return nil
		}
		if pass.Pkg.Scope().Lookup(enqueueName) == nil {
			return nil
		}
		for _, f := range pass.Files {
			forEachEnqueueSite(pass, f, func(site *enqueueSite) {
				if site.fuse != nil {
					checkFuseCapability(pass, site)
				}
			})
		}
		return nil
	}
	return a
}

// consumeAssign is one attachment of the consume capability: the syntactic
// position the guard analysis judges, and the callback expression whose
// closures must avoid the fusion source.
type consumeAssign struct {
	pos  token.Pos
	expr ast.Expr
}

// checkFuseCapability decodes the fuseInfo value one site assigns to its
// spec's fuse field and applies the three capability rules.
func checkFuseCapability(pass *Pass, site *enqueueSite) {
	fiExpr := unparen(site.fuse)
	if id, ok := fiExpr.(*ast.Ident); ok && id.Name == "nil" {
		return
	}

	var srcExpr ast.Expr
	var consumes []consumeAssign
	collectField := func(lit *ast.CompositeLit, at token.Pos) {
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch key.Name {
			case "srcID":
				srcExpr = kv.Value
			case "consume":
				consumes = append(consumes, consumeAssign{pos: at, expr: kv.Value})
			}
		}
	}
	stripLit := func(e ast.Expr) *ast.CompositeLit {
		if un, ok := unparen(e).(*ast.UnaryExpr); ok && un.Op == token.AND {
			e = un.X
		}
		lit, _ := unparen(e).(*ast.CompositeLit)
		return lit
	}

	if id, ok := fiExpr.(*ast.Ident); ok {
		fiObj := pass.TypesInfo.Uses[id]
		if fiObj == nil {
			return
		}
		ast.Inspect(funcBody(site.enclosing), func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			switch lhs := as.Lhs[0].(type) {
			case *ast.Ident:
				if pass.TypesInfo.Defs[lhs] == fiObj || pass.TypesInfo.Uses[lhs] == fiObj {
					if lit := stripLit(as.Rhs[0]); lit != nil {
						collectField(lit, as.Pos())
					}
				}
			case *ast.SelectorExpr:
				base := baseIdent(lhs.X)
				if base == nil || (pass.TypesInfo.Uses[base] != fiObj && pass.TypesInfo.Defs[base] != fiObj) {
					return true
				}
				switch lhs.Sel.Name {
				case "srcID":
					srcExpr = as.Rhs[0]
				case "consume":
					consumes = append(consumes, consumeAssign{pos: as.Pos(), expr: as.Rhs[0]})
				}
			}
			return true
		})
	} else if lit := stripLit(fiExpr); lit != nil {
		collectField(lit, site.call.Pos())
	}

	if srcExpr == nil {
		if len(consumes) > 0 {
			pass.Reportf(consumes[0].pos, "consume capability attached without a resolvable srcID (expected srcID: <operand>.obj.id); fusion legality cannot identify the fused-away operand")
		}
		return
	}
	srcVar := objIDBaseVar(pass, srcExpr)
	if srcVar == nil {
		pass.Reportf(srcExpr.Pos(), "fuseInfo srcID is not of the form <operand>.obj.id; fusion legality cannot tie the capability to a declared read")
		return
	}
	if srcVar != site.outVar && !site.readVars[srcVar] && srcVar != site.maskVar {
		pass.Reportf(srcExpr.Pos(), "fusion source %s is not among the inputs the skeleton was handed: dataflow.FuseLegal proves elision from derived footprints only", srcVar.Name())
	}

	maskVar := site.maskVar
	if maskVar == nil {
		maskVar = maskParam(pass, site.enclosing)
	}
	for _, c := range consumes {
		if maskVar != nil && !aliasGuarded(pass, site.enclosing, c.pos, maskVar, srcVar) {
			pass.Reportf(c.pos, "consume capability is not vetoed when mask aliases the fusion source %s: guard it with mask == nil || mask.obj.id != %s.obj.id, or the fused kernel resolves the mask from %s's stale committed store", srcVar.Name(), srcVar.Name(), srcVar.Name())
		}
		ast.Inspect(c.expr, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != srcVar {
				return true
			}
			pass.Reportf(id.Pos(), "fused consumer reads fusion source %s directly: when fused the producer is a stub and %s's committed store is stale — stream the payload instead", srcVar.Name(), srcVar.Name())
			return true
		})
	}
}

// objIDBaseVar resolves an `x.obj.id` expression to x's variable.
func objIDBaseVar(pass *Pass, e ast.Expr) types.Object {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "id" {
		return nil
	}
	inner, ok := unparen(sel.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != "obj" {
		return nil
	}
	base := baseIdent(inner.X)
	if base == nil {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[base].(*types.Var)
	if !ok || !isObjectVar(pass, v) {
		return nil
	}
	return v
}

// maskParam finds an object-typed parameter named mask on the enclosing op
// function, for sites that did not hand one over in the mask position.
func maskParam(pass *Pass, fn ast.Node) types.Object {
	fd, ok := fn.(*ast.FuncDecl)
	if !ok || fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name != "mask" {
				continue
			}
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isObjectVar(pass, v) {
				return v
			}
		}
	}
	return nil
}

// aliasGuarded reports whether the statement at pos sits in the then-branch
// of an if whose condition is protective against mask==src aliasing.
func aliasGuarded(pass *Pass, fn ast.Node, pos token.Pos, maskVar, srcVar types.Object) bool {
	guarded := false
	ast.Inspect(funcBody(fn), func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if ifs.Body.Pos() <= pos && pos < ifs.Body.End() && protectiveCond(pass, ifs.Cond, maskVar, srcVar) {
			guarded = true
		}
		return true
	})
	return guarded
}

// protectiveCond evaluates whether cond being true rules out mask aliasing
// the source: for &&, either conjunct suffices (both are true); for ||, both
// disjuncts must independently suffice. The protective atoms are
// `mask == nil` and `mask.obj.id != src.obj.id` (either operand order).
func protectiveCond(pass *Pass, cond ast.Expr, maskVar, srcVar types.Object) bool {
	switch x := unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			return protectiveCond(pass, x.X, maskVar, srcVar) || protectiveCond(pass, x.Y, maskVar, srcVar)
		case token.LOR:
			return protectiveCond(pass, x.X, maskVar, srcVar) && protectiveCond(pass, x.Y, maskVar, srcVar)
		case token.EQL:
			return maskNilCompare(pass, x, maskVar)
		case token.NEQ:
			return idCompare(pass, x, maskVar, srcVar)
		}
	}
	return false
}

// maskNilCompare matches `mask == nil` in either operand order.
func maskNilCompare(pass *Pass, be *ast.BinaryExpr, maskVar types.Object) bool {
	isMask := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == maskVar
	}
	isNil := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isMask(be.X) && isNil(be.Y)) || (isNil(be.X) && isMask(be.Y))
}

// idCompare matches `mask.obj.id != src.obj.id` in either operand order.
func idCompare(pass *Pass, be *ast.BinaryExpr, maskVar, srcVar types.Object) bool {
	baseOf := func(e ast.Expr) types.Object {
		sel, ok := unparen(e).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "id" {
			return nil
		}
		inner, ok := unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "obj" {
			return nil
		}
		base := baseIdent(inner.X)
		if base == nil {
			return nil
		}
		return pass.TypesInfo.Uses[base]
	}
	bx, by := baseOf(be.X), baseOf(be.Y)
	return (bx == maskVar && by == srcVar) || (bx == srcVar && by == maskVar)
}
