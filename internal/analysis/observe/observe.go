// Package observe statically enforces the PR 6 purity contract: the
// observational hooks that cross-validate the cycle core — CommitObserver
// and LoadObserver implementations, engine Holding() predicates,
// cpu.Core.CheckInvariants, the oracle's per-commit Check, and the
// harness's machine snapshot (which harness.Trace takes every sampled
// cycle) — must not write simulator state. Their call closure may write only observer-owned
// shadow state (the oracle's interpreter, Divergence latches, trace
// buffers); any write reaching cpu.Core, an engine, or the memory system
// would make -check runs diverge from unchecked ones, invalidating the
// byte-identity guarantee the harness is built on.
//
// Mechanically, the pass
//
//  1. collects entry points: every function value assigned to a
//     CommitObserver/LoadObserver field, methods named OnCommit, engine
//     Holding methods, cpu.Core.CheckInvariants, oracle Check methods,
//     and the harness's instance snapshot;
//  2. computes interprocedural write-effect summaries (writes-receiver /
//     writes-param-i / writes-global) for every module function by
//     fixpoint over the call graph;
//  3. walks the entry points' call closure and flags: direct writes
//     whose access chain passes through a watched type (cpu, core, mem,
//     branch, prefetch packages), writes through locals tainted by
//     watched state (pointers handed out by accessors), package-level
//     writes, and calls whose callee summary writes a watched operand.
package observe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"vrsim/internal/analysis"
)

var Analyzer = &analysis.ModuleAnalyzer{
	Name: "observe",
	Doc:  "verify observer hooks (CommitObserver, Holding, CheckInvariants, oracle checks) never write simulator state",
	Run:  run,
}

// watchedPkg reports whether a package holds simulator state the
// observers must not touch.
func watchedPkg(path string) bool {
	for _, s := range []string{"internal/cpu", "internal/core", "internal/mem", "internal/branch", "internal/prefetch"} {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// watchedType reports whether t (possibly pointer-wrapped) is a named
// type declared in a watched package.
func watchedType(t types.Type) bool {
	if t == nil {
		return false
	}
	key := analysis.TypeKey(t)
	if key == "" {
		return false
	}
	i := strings.LastIndexByte(key, '.')
	return i > 0 && watchedPkg(key[:i])
}

type checker struct {
	pass      *analysis.ModulePass
	graph     *analysis.CallGraph
	summaries map[string]*effects
}

// effects is one function's write-effect summary.
type effects struct {
	recv   bool
	params map[int]bool
	global bool
}

func run(pass *analysis.ModulePass) error {
	c := &checker{pass: pass, graph: analysis.BuildCallGraph(pass.Pkgs)}
	entries := c.entryPoints()
	if len(entries) == 0 {
		return nil
	}
	c.computeSummaries()
	closure := c.graph.Reachable(entries)
	entrySet := map[string]bool{}
	for _, e := range entries {
		entrySet[e] = true
	}
	for _, key := range c.graph.SortedKeys() {
		if !closure[key] {
			continue
		}
		n := c.graph.Funcs[key]
		if n.Body == nil {
			continue
		}
		// Functions that live inside a watched package are the simulator
		// itself — they mutate their own state legitimately, and the
		// closure reaches them through read-only accessors. Their effects
		// are judged at the observer-side call sites via summaries. Entry
		// points are the exception: a Holding or CheckInvariants method is
		// declared on watched state yet bound by the purity contract.
		if watchedPkg(n.Pkg.PkgPath) && !entrySet[key] {
			continue
		}
		c.checkFunc(n)
	}
	return nil
}

// entryPoints collects the observer hooks' function keys.
func (c *checker) entryPoints() []string {
	set := map[string]bool{}
	for _, key := range c.graph.FieldAssignees("CommitObserver") {
		set[key] = true
	}
	for _, key := range c.graph.FieldAssignees("LoadObserver") {
		set[key] = true
	}
	for _, key := range c.graph.SortedKeys() {
		n := c.graph.Funcs[key]
		if n.Decl == nil || n.Decl.Recv == nil {
			continue
		}
		name := n.Decl.Name.Name
		path := n.Pkg.PkgPath
		switch {
		case name == "OnCommit":
			set[key] = true
		case name == "Holding" && strings.HasSuffix(path, "internal/core"):
			set[key] = true
		case name == "CheckInvariants" && strings.HasSuffix(path, "internal/cpu"):
			set[key] = true
		case name == "Check" && strings.Contains(path, "oracle"):
			set[key] = true
		case name == "snapshot" && strings.HasSuffix(path, "internal/harness"):
			set[key] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ownerVars returns the receiver and parameter objects of a function
// node, in position order (receiver separate).
func ownerVars(n *analysis.FuncNode) (recv types.Object, params []types.Object) {
	info := n.Pkg.Info
	var ftype *ast.FuncType
	if n.Decl != nil {
		ftype = n.Decl.Type
		if n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 && len(n.Decl.Recv.List[0].Names) > 0 {
			recv = info.Defs[n.Decl.Recv.List[0].Names[0]]
		}
	} else if n.Lit != nil {
		ftype = n.Lit.Type
	}
	if ftype == nil || ftype.Params == nil {
		return recv, params
	}
	for _, field := range ftype.Params.List {
		if len(field.Names) == 0 {
			params = append(params, nil) // unnamed: unaddressable, unwritable
			continue
		}
		for _, name := range field.Names {
			params = append(params, info.Defs[name])
		}
	}
	return recv, params
}

// computeSummaries derives write-effect summaries for every module
// function by fixpoint.
func (c *checker) computeSummaries() {
	c.summaries = map[string]*effects{}
	keys := c.graph.SortedKeys()
	for _, key := range keys {
		c.summaries[key] = &effects{params: map[int]bool{}}
	}
	// Seed with direct effects.
	for _, key := range keys {
		n := c.graph.Funcs[key]
		if n.Body != nil {
			c.directEffects(key, n)
		}
	}
	// Propagate through static calls until stable.
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			n := c.graph.Funcs[key]
			if n.Body == nil {
				continue
			}
			if c.propagateCalls(key, n) {
				changed = true
			}
		}
	}
}

// paramIndexOf maps an object to its parameter position, or -1.
func paramIndexOf(params []types.Object, obj types.Object) int {
	for i, p := range params {
		if p != nil && p == obj {
			return i
		}
	}
	return -1
}

// directEffects records writes to the receiver, parameters and globals
// found syntactically in the function body.
func (c *checker) directEffects(key string, n *analysis.FuncNode) {
	eff := c.summaries[key]
	recv, params := ownerVars(n)
	info := n.Pkg.Info
	forEachWrite(n, func(target ast.Expr, pos token.Pos) {
		root := analysis.RootIdent(target)
		if root == nil {
			return
		}
		obj := info.Uses[root]
		if obj == nil {
			obj = info.Defs[root]
		}
		if obj == nil {
			return
		}
		switch {
		case obj == recv:
			if target != root { // a field/element of the receiver, not rebinding the ident
				eff.recv = true
			}
		case paramIndexOf(params, obj) >= 0:
			if target != root {
				eff.params[paramIndexOf(params, obj)] = true
			}
		case isPackageVar(obj):
			eff.global = true
		}
	})
}

// propagateCalls folds callee summaries into the caller's; reports
// whether anything changed.
func (c *checker) propagateCalls(key string, n *analysis.FuncNode) bool {
	eff := c.summaries[key]
	recv, params := ownerVars(n)
	info := n.Pkg.Info
	changed := false
	absorb := func(operand ast.Expr) {
		root := analysis.RootIdent(operand)
		if root == nil {
			return
		}
		obj := info.Uses[root]
		if obj == nil {
			return
		}
		switch {
		case obj == recv && !eff.recv:
			eff.recv = true
			changed = true
		case paramIndexOf(params, obj) >= 0 && !eff.params[paramIndexOf(params, obj)]:
			eff.params[paramIndexOf(params, obj)] = true
			changed = true
		}
	}
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n.Lit {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, callee := range c.calleeSummaries(n.Pkg, call) {
			if callee.eff.global && !eff.global {
				eff.global = true
				changed = true
			}
			if callee.eff.recv && callee.recvExpr != nil {
				absorb(callee.recvExpr)
			}
			for i := range callee.eff.params {
				if i < len(call.Args) {
					absorb(call.Args[i])
				}
			}
		}
		return true
	})
	return changed
}

// calleeSummary pairs a resolved callee's effects with the receiver
// expression at this call site.
type calleeSummary struct {
	key      string
	eff      *effects
	recvExpr ast.Expr
}

// calleeSummaries resolves a call to the summaries of its possible
// module callees (one for static calls, all implementations for
// interface dispatch).
func (c *checker) calleeSummaries(pkg *analysis.Package, call *ast.CallExpr) []calleeSummary {
	f := analysis.FuncObj(pkg.Info, call)
	if f == nil {
		return nil
	}
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recvExpr = sel.X
		}
	}
	var out []calleeSummary
	if keys := c.graph.CalleeKeys(pkg, call); len(keys) > 0 {
		for _, k := range keys {
			if eff := c.summaries[k]; eff != nil {
				out = append(out, calleeSummary{key: k, eff: eff, recvExpr: recvExpr})
			}
		}
	}
	return out
}

// isPackageVar reports whether obj is a package-level variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// forEachWrite visits every syntactic write target in the function body:
// assignment LHS, ++/--, and the destination of copy/delete builtins.
// Nested literals are skipped (they are their own functions).
func forEachWrite(n *analysis.FuncNode, f func(target ast.Expr, pos token.Pos)) {
	info := n.Pkg.Info
	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if n.Lit != m {
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if id.Name == "_" || m.Tok == token.DEFINE {
						continue // blank or fresh binding: no shared state touched
					}
				}
				f(ast.Unparen(lhs), lhs.Pos())
			}
		case *ast.IncDecStmt:
			f(ast.Unparen(m.X), m.X.Pos())
		case *ast.SendStmt:
			f(ast.Unparen(m.Chan), m.Chan.Pos())
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && len(m.Args) > 0 {
					switch b.Name() {
					case "copy", "delete":
						f(ast.Unparen(m.Args[0]), m.Args[0].Pos())
					}
				}
			}
		}
		return true
	})
}

// taintedLocals computes, per function, the set of locals that alias
// watched state: assigned from a field/element of a watched value or
// from a reference-typed result of a method on a watched receiver
// (h := c.Hier()).
func (c *checker) taintedLocals(n *analysis.FuncNode) map[types.Object]bool {
	info := n.Pkg.Info
	tainted := map[types.Object]bool{}
	derivesWatched := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if !refType(info.Types[e].Type) {
			return false
		}
		if chainWatched(info, e) {
			return true
		}
		if call, ok := e.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && watchedType(s.Recv()) {
					return true
				}
			}
		}
		if root := analysis.RootIdent(e); root != nil {
			if obj := info.Uses[root]; obj != nil && tainted[obj] {
				return true
			}
		}
		return false
	}
	// Two passes so chains of locals (a := c.Hier(); b := a.L2()) settle.
	for i := 0; i < 2; i++ {
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok && m != n.Lit {
				return false
			}
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for j, lhs := range as.Lhs {
				if j >= len(as.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && derivesWatched(as.Rhs[j]) {
					tainted[obj] = true
				}
			}
			return true
		})
	}
	return tainted
}

// refType reports whether writes through a value of type t can reach
// shared state (pointers, slices, maps).
func refType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// chainWatched reports whether any base along a selector/index chain has
// a watched type: writing through such a chain mutates simulator state.
func chainWatched(info *types.Info, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if watchedType(info.Types[x.X].Type) {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			if watchedType(info.Types[x.X].Type) {
				return true
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			// A bare ident is a rebinding, not a write through state; the
			// caller decides whether the ident itself matters.
			return false
		default:
			return false
		}
	}
}

// checkFunc flags the purity violations of one observer-closure function.
func (c *checker) checkFunc(n *analysis.FuncNode) {
	info := n.Pkg.Info
	fname := n.Name()
	tainted := c.taintedLocals(n)

	violating := func(target ast.Expr) bool {
		if chainWatched(info, target) {
			return true
		}
		if root := analysis.RootIdent(target); root != nil {
			if obj := info.Uses[root]; obj != nil {
				if tainted[obj] {
					return true
				}
				if isPackageVar(obj) {
					return true
				}
			}
		}
		return false
	}

	forEachWrite(n, func(target ast.Expr, pos token.Pos) {
		if root := analysis.RootIdent(target); root != nil {
			if obj := info.Uses[root]; obj != nil && isPackageVar(obj) && !chainWatched(info, target) {
				c.pass.Reportf(pos, "observer purity: %s writes package-level state %s", fname, root.Name)
				return
			}
		}
		if _, ok := target.(*ast.Ident); ok {
			// Rebinding a local — even a tainted or watched-typed one — is
			// a value write to the variable itself, not to shared state.
			return
		}
		if violating(target) {
			c.pass.Reportf(pos, "observer purity: %s writes watched simulator state %s", fname, renderExpr(target))
		}
	})

	// Calls whose callee writes a watched operand.
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n.Lit {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, cs := range c.calleeSummaries(n.Pkg, call) {
			calleeName := shortKey(cs.key)
			if cs.eff.recv && cs.recvExpr != nil &&
				(watchedType(info.Types[cs.recvExpr].Type) || violatingRoot(info, tainted, cs.recvExpr)) {
				c.pass.Reportf(call.Pos(), "observer purity: %s calls %s, which writes its receiver (watched simulator state)",
					fname, calleeName)
			}
			for i := range cs.eff.params {
				if i >= len(call.Args) {
					continue
				}
				arg := call.Args[i]
				// Go passes by value: a callee writing a value-typed param
				// mutates its own copy, so only reference-typed arguments
				// (pointers, slices, maps) can leak writes back.
				if !refType(info.Types[arg].Type) {
					continue
				}
				if watchedType(info.Types[arg].Type) || chainWatched(info, ast.Unparen(arg)) || violatingRoot(info, tainted, arg) {
					c.pass.Reportf(call.Pos(), "observer purity: %s passes watched simulator state to %s, which writes it",
						fname, calleeName)
				}
			}
		}
		return true
	})
}

// violatingRoot reports whether an expression's root local is tainted by
// watched state.
func violatingRoot(info *types.Info, tainted map[types.Object]bool, e ast.Expr) bool {
	root := analysis.RootIdent(ast.Unparen(e))
	if root == nil {
		return false
	}
	obj := info.Uses[root]
	return obj != nil && tainted[obj]
}

// shortKey trims the package path of a function key for messages.
func shortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		prefix := ""
		if strings.HasPrefix(key, "(") {
			prefix = "("
		}
		return prefix + key[i+1:]
	}
	return key
}

// renderExpr renders a short textual form of a write target.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := renderExpr(e.X)
		if base == "" {
			base = "?"
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := renderExpr(e.X)
		if base == "" {
			base = "?"
		}
		return base + "[...]"
	case *ast.StarExpr:
		return renderExpr(e.X)
	case *ast.ParenExpr:
		return renderExpr(e.X)
	case *ast.CallExpr:
		return renderExpr(e.Fun) + "()"
	}
	return fmt.Sprintf("%T", e)
}
