package analysis

// faultsite keeps the fault-injection sites honest. Kernel-internal draws —
// faults.Step and faults.GovernAlloc — are meaningful only if their site
// names are stable, unique, and classifiable:
//
//   - the site must be a constant string literal: a computed name cannot be
//     targeted by a fault plan and silently weakens the differential sweep;
//   - it must be dotted and live in a registered namespace
//     ("sparse.kernel.", "format.kernel.", "shard.kernel.", …):
//     PlanCoversKernelSites classifies kernel-internal sites by their dots,
//     and an undotted Step site would let a DAG-parallel flush run a plan
//     that reaches inside kernel bodies without serializing them —
//     nondeterministic injection schedules;
//   - the same site literal must not be drawn from two different functions:
//     PR 5 found "format.kernel.hyper.mxv" copy-pasted into both the dot and
//     push hypersparse kernels, making the two indistinguishable to plans;
//   - the literals must match the canonical faults.KernelSites list exactly,
//     in both directions — a drawn-but-undeclared site (typo'd or never
//     registered, with a did-you-mean suggestion) and a declared-but-unused
//     one (dead registry entry) are both drift.
//
// faults.Check sites are executor-level op names, intentionally dynamic, and
// exempt. The canonical list is read from the AST of whichever visited
// package declares `var KernelSites = []string{...}` (internal/faults in the
// real tree), so the cross-check needs no execution of repo code.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// kernelSiteNamespaces are the registered dotted prefixes for
// kernel-internal injection sites.
var kernelSiteNamespaces = []string{"sparse.kernel.", "format.kernel.", "format.alloc.", "stream.kernel.", "stream.alloc.", "shard.kernel.", "shard.alloc."}

type siteUse struct {
	pos  token.Pos
	fn   string // enclosing function name
	call string // Step or GovernAlloc
}

// NewFaultSite returns a fresh faultsite analyzer.
func NewFaultSite() *Analyzer {
	uses := map[string][]siteUse{}     // site literal -> draw sites
	declared := map[string]token.Pos{} // canonical list entries
	haveList := false
	a := &Analyzer{
		Name: "faultsite",
		Doc:  "checks kernel fault-injection site literals: constant, namespaced, unique, and in sync with faults.KernelSites",
	}
	a.Run = func(pass *Pass) error {
		if !engineScope(pass.Pkg) {
			return nil
		}
		for _, f := range pass.Files {
			collectKernelSiteList(pass, f, declared, &haveList)
			collectSiteDraws(pass, f, uses)
		}
		return nil
	}
	a.Finish = func() []Diagnostic {
		var out []Diagnostic
		report := func(pos token.Pos, msg string) {
			out = append(out, Diagnostic{Pos: pos, Analyzer: a.Name, Message: msg})
		}
		for site, us := range uses {
			// One site drawn from two different functions cannot be told
			// apart by a fault plan.
			fns := map[string]bool{}
			for _, u := range us {
				fns[u.fn] = true
			}
			if len(fns) > 1 {
				for _, u := range us {
					report(u.pos, "fault site "+strconv.Quote(site)+" is drawn from "+strconv.Itoa(len(fns))+" different functions; give each kernel its own site so plans can target them separately")
				}
			}
			if haveList {
				if _, ok := declared[site]; !ok {
					msg := "fault site " + strconv.Quote(site) + " is not in faults.KernelSites"
					if s := nearestSite(site, declared); s != "" {
						msg += " (did you mean " + strconv.Quote(s) + "?)"
					}
					msg += "; register it so plans and the differential sweep can see it"
					for _, u := range us {
						report(u.pos, msg)
					}
				}
			}
		}
		if haveList {
			for site, pos := range declared {
				if _, ok := uses[site]; !ok {
					report(pos, "faults.KernelSites entry "+strconv.Quote(site)+" is drawn by no kernel; the list has drifted from the code")
				}
			}
		}
		return out
	}
	return a
}

// collectKernelSiteList records the entries of a package-level
// `var KernelSites = []string{...}` declaration.
func collectKernelSiteList(pass *Pass, f *ast.File, declared map[string]token.Pos, haveList *bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if name.Name != "KernelSites" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				*haveList = true
				for _, elt := range cl.Elts {
					if s, ok := stringLiteral(pass.TypesInfo, elt); ok {
						if prev, dup := declared[s]; dup && prev != elt.Pos() {
							pass.Reportf(elt.Pos(), "duplicate faults.KernelSites entry %q", s)
						}
						declared[s] = elt.Pos()
					}
				}
			}
		}
	}
}

// collectSiteDraws records faults.Step / faults.GovernAlloc call sites and
// checks the literal-and-namespace rules in place.
func collectSiteDraws(pass *Pass, f *ast.File, uses map[string][]siteUse) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := calleePkgFunc(pass.TypesInfo, call)
		if !ok || pkg != "faults" || (name != "Step" && name != "GovernAlloc") {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		site, isConst := stringLiteral(pass.TypesInfo, call.Args[0])
		if !isConst {
			pass.Reportf(call.Args[0].Pos(), "faults.%s site must be a constant string: a computed site cannot be targeted by a fault plan", name)
			return true
		}
		if !strings.Contains(site, ".") {
			pass.Reportf(call.Args[0].Pos(), "kernel fault site %q has no dot: PlanCoversKernelSites would misclassify it and a DAG flush could draw it nondeterministically", site)
		} else if !inNamespace(site) {
			pass.Reportf(call.Args[0].Pos(), "kernel fault site %q is outside the registered namespaces %v", site, kernelSiteNamespaces)
		}
		fn := "(package scope)"
		if funcs := enclosingFuncs(f, call.Pos()); len(funcs) > 0 {
			for i := len(funcs) - 1; i >= 0; i-- {
				if name := funcName(funcs[i]); name != "" {
					fn = name
					break
				}
			}
		}
		uses[site] = append(uses[site], siteUse{pos: call.Args[0].Pos(), fn: fn, call: name})
		return true
	})
}

func inNamespace(site string) bool {
	for _, ns := range kernelSiteNamespaces {
		if strings.HasPrefix(site, ns) {
			return true
		}
	}
	return false
}

// stringLiteral resolves e to a compile-time string constant.
func stringLiteral(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	if tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// nearestSite returns the declared site with the smallest edit distance to
// site, when that distance is small enough to look like a typo.
func nearestSite(site string, declared map[string]token.Pos) string {
	best, bestDist := "", 4 // accept distance <= 3
	for d := range declared {
		if dist := editDistance(site, d); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
