package analysis

// footprint codifies the invariant the nonblocking scheduler's correctness
// rests on: the hazard DAG sees exactly the objects an operation's deferred
// closures will actually touch. Store recycling leans on it too: a
// superseded store is recycled once its replacement commits, which is safe
// only because every reader of the old store is ordered before that write.
//
// The engine has one entry point, enqueue(opSpec, run), and the footprint is
// derived from the spec (opSpec.footprint: the inputs the operation handed
// the skeleton, then the mask through maskReads). So the contract has two
// halves, and the analyzer checks both:
//
//   - At every enqueue site, every *Matrix/*Vector variable captured by the
//     run closure must be one the skeleton was handed: the output and mask
//     given to the typed constructor (matOp/vecOp, or opSpec.begin), an
//     input passed through opSpec.input, or — for the object methods that
//     enqueue without Figure 2's pipeline — the out and src arguments of
//     methodSpec. A captured object outside that set is a read or write the
//     DAG builder never hears about.
//   - The mask operand must be handed over in the mask position, never as a
//     data input: only there does the check step test it against the
//     output's shape (opSpec.begin).
//   - No store dereference (vdat()/mdat()/oriented()/transposed() calls) may
//     happen in the enqueue path outside the deferred closures: a store read
//     at enqueue time sees pre-hazard content and silently bypasses the
//     DAG's ordering.
//   - In the skeleton itself, enqueue must take the pending operation's
//     reads from opSpec.footprint, and footprint must cover every input
//     (the in[:nin] slice) and pass the mask through maskReads.
//
// The analysis is structural over the skeleton's own vocabulary: the entry
// point is recognized by name and signature shape (an opSpec value and a
// trailing func() error), the spec variable is traced through the calls in
// the enclosing function that take its address or have it as receiver, and
// the closures are walked for free-variable uses of object-typed vars.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The skeleton's vocabulary. enqueueName and specType identify the entry
// point; the rest name the hand-over points whose arguments make up the
// footprint.
const (
	enqueueName    = "enqueue"
	specType       = "opSpec"
	operandType    = "operand"
	methodSpecName = "methodSpec"
	beginMethod    = "begin"
	inputMethod    = "input"
	footprintName  = "footprint"
	maskReadsName  = "maskReads"
)

// storeReaders are the accessors that dereference an object's committed
// store.
var storeReaders = map[string]bool{"vdat": true, "mdat": true, "oriented": true, "transposed": true}

// NewFootprint returns a fresh footprint analyzer.
func NewFootprint() *Analyzer {
	a := &Analyzer{
		Name: "footprint",
		Doc:  "flags enqueued kernel closures touching objects the operation skeleton was not handed, and a skeleton whose derived footprint drops an operand",
	}
	a.Run = func(pass *Pass) error {
		if !engineScope(pass.Pkg) {
			return nil
		}
		// The analyzer engages only in packages that define the entry point
		// (internal/core and the golden mocks).
		if pass.Pkg.Scope().Lookup(enqueueName) == nil {
			return nil
		}
		for _, f := range pass.Files {
			checkEnqueueSites(pass, f)
			checkSkeleton(pass, f)
		}
		return nil
	}
	return a
}

// forEachEnqueueSite resolves every enqueue call in f that carries a run
// closure and hands it to visit.
func forEachEnqueueSite(pass *Pass, f *ast.File, visit func(*enqueueSite)) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isEnqueueCall(pass, call) {
			return true
		}
		if site := resolveEnqueueSite(pass, f, call); site != nil {
			visit(site)
		}
		return true
	})
}

// checkEnqueueSites verifies each site's closures against what the skeleton
// was handed.
func checkEnqueueSites(pass *Pass, f *ast.File) {
	eagerChecked := map[ast.Node]bool{}
	forEachEnqueueSite(pass, f, func(site *enqueueSite) {
		site.check(pass)
		if !eagerChecked[site.enclosing] {
			eagerChecked[site.enclosing] = true
			site.checkEagerStoreReads(pass)
		}
	})
}

// isEnqueueCall reports whether call is the package's own
// enqueue(opSpec, func() error): the name alone is not trusted, so a
// same-named helper elsewhere cannot confuse the analyzer.
func isEnqueueCall(pass *Pass, call *ast.CallExpr) bool {
	callee, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || callee.Name != enqueueName || len(call.Args) != 2 {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[callee].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 2 || !isNamed(sig.Params().At(0).Type(), specType) {
		return false
	}
	run, ok := sig.Params().At(1).Type().(*types.Signature)
	return ok && run.Params().Len() == 0 && run.Results().Len() == 1 && isErrorType(run.Results().At(0).Type())
}

// enqueueSite is one resolved enqueue call: what the skeleton was handed and
// the closures that will execute against it at flush time.
type enqueueSite struct {
	call *ast.CallExpr
	// outVar is the object written; nil when the output was not handed over
	// as a plain variable.
	outVar types.Object
	// readVars are the objects handed over as inputs.
	readVars map[types.Object]bool
	// maskVar is the object handed over in the mask position, nil when the
	// site has none.
	maskVar types.Object
	// closures are the deferred regions to scan: the run closure.
	closures []ast.Node
	// enclosing is the op function containing the call.
	enclosing ast.Node
}

// resolveEnqueueSite decodes what one call's spec was handed. Returns nil
// when the run argument is not a function literal (a forwarding shape).
func resolveEnqueueSite(pass *Pass, f *ast.File, call *ast.CallExpr) *enqueueSite {
	lit, ok := unparen(call.Args[1]).(*ast.FuncLit)
	if !ok {
		return nil
	}
	funcs := enclosingFuncs(f, call.Pos())
	if len(funcs) == 0 {
		return nil
	}
	site := &enqueueSite{call: call, readVars: map[types.Object]bool{}, closures: []ast.Node{lit}, enclosing: funcs[0]}
	switch spec := unparen(call.Args[0]).(type) {
	case *ast.CallExpr:
		// enqueue(methodSpec(name, &out.obj, &src.obj, keeps), run)
		if callee, ok := unparen(spec.Fun).(*ast.Ident); ok && callee.Name == methodSpecName && len(spec.Args) >= 3 {
			site.outVar = objBaseVar(pass, spec.Args[1])
			if v := objBaseVar(pass, spec.Args[2]); v != nil {
				site.readVars[v] = true
			}
		}
	case *ast.Ident:
		if specVar := pass.TypesInfo.Uses[spec]; specVar != nil {
			site.traceSpec(pass, specVar)
		}
	}
	return site
}

// traceSpec walks the enclosing function for every hand-over to the spec
// variable: a typed constructor taking its address (the object arguments
// are the output, then the mask), its begin method (the operand arguments
// are the output, then the mask), and its input method.
func (s *enqueueSite) traceSpec(pass *Pass, specVar types.Object) {
	isSpec := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == specVar
	}
	ast.Inspect(funcBody(s.enclosing), func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok && isSpec(sel.X) {
				switch sel.Sel.Name {
				case beginMethod:
					s.handOutAndMask(pass, x.Args, func(e ast.Expr) types.Object { return s.operandBaseVar(pass, e, 0) })
				case inputMethod:
					if len(x.Args) == 1 {
						if v := s.operandBaseVar(pass, x.Args[0], 0); v != nil {
							s.readVars[v] = true
						}
					}
				}
				return true
			}
			if len(x.Args) > 0 {
				if un, ok := unparen(x.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND && isSpec(un.X) {
					s.handOutAndMask(pass, x.Args[1:], func(e ast.Expr) types.Object { return objectVar(pass, e) })
				}
			}
		}
		return true
	})
}

// handOutAndMask records the first argument that resolves to an object as
// the output and the second as the mask.
func (s *enqueueSite) handOutAndMask(pass *Pass, args []ast.Expr, resolve func(ast.Expr) types.Object) {
	seen := 0
	for _, arg := range args {
		v := resolve(arg)
		if v == nil {
			continue
		}
		switch seen {
		case 0:
			s.outVar = v
		case 1:
			s.maskVar = v
		}
		seen++
	}
}

// objectVar resolves a plain identifier of object type to its variable.
func objectVar(pass *Pass, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isObjectVar(pass, v) {
		return v
	}
	return nil
}

// operandBaseVar resolves an operand expression to the object it describes:
// a call returning the skeleton's operand type with an object argument
// (matArg(a, tran), vecArg(u)), or a local traced to such a call. depth
// bounds indirection so aliasing chains terminate.
func (s *enqueueSite) operandBaseVar(pass *Pass, e ast.Expr, depth int) types.Object {
	if depth > 4 {
		return nil
	}
	switch x := unparen(e).(type) {
	case *ast.CallExpr:
		if tv, ok := pass.TypesInfo.Types[x]; !ok || !isNamed(tv.Type, operandType) {
			return nil
		}
		for _, arg := range x.Args {
			if v := objectVar(pass, arg); v != nil {
				return v
			}
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil {
			return nil
		}
		var found types.Object
		ast.Inspect(funcBody(s.enclosing), func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if ok && (pass.TypesInfo.Defs[lhs] == obj || pass.TypesInfo.Uses[lhs] == obj) {
				if v := s.operandBaseVar(pass, as.Rhs[0], depth+1); v != nil {
					found = v
				}
			}
			return true
		})
		return found
	}
	return nil
}

// check walks the site's closures and reports captured object variables the
// skeleton was not handed.
func (s *enqueueSite) check(pass *Pass) {
	reported := map[types.Object]bool{}
	for _, region := range s.closures {
		ast.Inspect(region, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || reported[v] {
				return true
			}
			if !isObjectVar(pass, v) || !s.freeIn(v, region) {
				return true
			}
			if v.Name() == "mask" && v != s.maskVar {
				// The mask operand must enter the skeleton through the mask
				// position specifically; handed over as a data input it is
				// never tested against the output's shape.
				reported[v] = true
				if s.readVars[v] {
					pass.Reportf(id.Pos(), "mask operand %s was handed to the skeleton as a data input; pass it in the mask position so the check step tests it as the mask and it enters the footprint through maskReads", v.Name())
				} else {
					pass.Reportf(id.Pos(), "mask operand %s is captured by the kernel closure but was never handed to the skeleton as the mask: the hazard DAG never orders this read", v.Name())
				}
				return true
			}
			if v == s.outVar || s.readVars[v] || v == s.maskVar {
				return true
			}
			reported[v] = true
			pass.Reportf(id.Pos(), "kernel closure captures %s, which the skeleton was not handed: pass it through opSpec.input (or make it the output) so the derived footprint lets the hazard DAG order this access", v.Name())
			return true
		})
	}
}

// checkEagerStoreReads flags store dereferences in the op function outside
// any function literal: the enqueue path runs at program order, before the
// hazard DAG has ordered this op against the operands' writers, so a store
// read there observes pre-hazard content.
func (s *enqueueSite) checkEagerStoreReads(pass *Pass) {
	body := funcBody(s.enclosing)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !storeReaders[sel.Sel.Name] {
			return true
		}
		if base := baseIdent(sel.X); base != nil {
			if v, ok := pass.TypesInfo.Uses[base].(*types.Var); ok && isObjectVar(pass, v) {
				pass.Reportf(call.Pos(), "store read %s.%s() at enqueue time, outside the deferred closure: the hazard DAG has not ordered this op against %s's writers yet", base.Name, sel.Sel.Name, base.Name)
			}
		}
		return true
	})
}

// freeIn reports whether v is declared outside region (a capture) but inside
// the enclosing op function (an operand or local, not a package global).
func (s *enqueueSite) freeIn(v *types.Var, region ast.Node) bool {
	if v.Pos() >= region.Pos() && v.Pos() < region.End() {
		return false // bound inside the closure
	}
	encl := s.enclosing
	return v.Pos() >= encl.Pos() && v.Pos() < encl.End()
}

// checkSkeleton verifies the derivation the sites above rely on, where it
// now lives: enqueue builds the pending operation's reads from
// opSpec.footprint, and footprint covers every input and sends the mask
// through maskReads.
func checkSkeleton(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		switch {
		case fd.Recv == nil && fd.Name.Name == enqueueName:
			if !readsFromFootprint(fd.Body) {
				pass.Reportf(fd.Pos(), "enqueue does not take the pending operation's reads from opSpec.footprint(): the hazard DAG would see a read set the skeleton did not derive")
			}
		case fd.Recv != nil && fd.Name.Name == footprintName:
			inputs, mask := false, false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SliceExpr:
					// <recv>.in[:<recv>.nin]
					if sel, ok := unparen(x.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "in" && x.Low == nil {
						if hi, ok := x.High.(*ast.SelectorExpr); ok && hi.Sel.Name == "nin" {
							inputs = true
						}
					}
				case *ast.CallExpr:
					if callee, ok := unparen(x.Fun).(*ast.Ident); ok && callee.Name == maskReadsName && len(x.Args) == 2 {
						if sel, ok := unparen(x.Args[1]).(*ast.SelectorExpr); ok && sel.Sel.Name == "mask" {
							mask = true
						}
					}
				}
				return true
			})
			if !inputs {
				pass.Reportf(fd.Pos(), "opSpec.footprint does not cover every input handed to the skeleton (expected the in[:nin] slice): a dropped operand is a read the hazard DAG never orders")
			}
			if !mask {
				pass.Reportf(fd.Pos(), "opSpec.footprint does not pass the mask through maskReads: a masked operation would run unordered against its mask's writers")
			}
		}
	}
}

// readsFromFootprint reports whether body contains a composite literal whose
// reads field is a <spec>.footprint() call.
func readsFromFootprint(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "reads" {
			return true
		}
		if call, ok := unparen(kv.Value).(*ast.CallExpr); ok {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == footprintName {
				found = true
			}
		}
		return true
	})
	return found
}

// isObjectVar reports whether v is a pointer to the engine's Matrix or
// Vector type declared in the package under analysis.
func isObjectVar(pass *Pass, v *types.Var) bool {
	ptr, ok := v.Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	if name != "Matrix" && name != "Vector" {
		return false
	}
	return named.Obj().Pkg() == pass.Pkg
}

// objBaseVar extracts the base variable of an `&x.obj` operand expression,
// nil for other shapes.
func objBaseVar(pass *Pass, e ast.Expr) types.Object {
	un, ok := unparen(e).(*ast.UnaryExpr)
	if !ok {
		return nil
	}
	sel, ok := unparen(un.X).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "obj" {
		return nil
	}
	base := baseIdent(sel.X)
	if base == nil {
		return nil
	}
	return pass.TypesInfo.Uses[base]
}

// isNamed reports whether t is a named type called name.
func isNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}
