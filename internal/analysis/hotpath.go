// Cycle-closure machinery of the hotalloc pass: the steady-state roots
// the call-graph closure starts at, the error-path/init-prologue site
// classification, and module-relative path rendering for the committed
// census artifact.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// CycleRoots returns the entry points of the steady-state cycle loop:
// cpu.Core.Run / RunChecked and every engine's per-cycle methods (Tick,
// HoldCommit, Holding). All cycle-closure passes root their
// reachability at the same set, so their budgets describe the same code.
func CycleRoots(g *CallGraph) []string {
	var roots []string
	for _, key := range g.SortedKeys() {
		n := g.Funcs[key]
		if n.Decl == nil || n.Decl.Recv == nil {
			continue
		}
		name := n.Decl.Name.Name
		switch {
		case strings.HasSuffix(n.Pkg.PkgPath, "internal/cpu") &&
			(name == "Run" || name == "RunChecked") && recvTypeName(n.Decl) == "Core":
			roots = append(roots, key)
		case strings.HasSuffix(n.Pkg.PkgPath, "internal/core") &&
			(name == "Tick" || name == "HoldCommit" || name == "Holding"):
			roots = append(roots, key)
		}
	}
	return roots
}

// recvTypeName returns the bare receiver type name of a method decl.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// IsCycleRootDriver reports whether a closure function is one of the
// Run/RunChecked drivers, whose straight-line prologue outside every
// loop is init-time rather than steady-state.
func IsCycleRootDriver(n *FuncNode) bool {
	return n.Decl != nil && (n.Decl.Name.Name == "Run" || n.Decl.Name.Name == "RunChecked")
}

// SiteContext classifies the position of one site inside a closure
// function: whether any enclosing statement is a loop, and whether the
// site sits on an error path (inside a return of a non-nil error, a
// panic argument, or an if-branch that terminates in one — the same
// one-level dominance rule hotalloc established). ok is false when pos
// cannot be located under the function body.
func SiteContext(n *FuncNode, pos token.Pos) (inLoop, onErrorPath, ok bool) {
	site := nodeAtPos(n.Body, pos)
	if site == nil {
		return false, false, false
	}
	path := PathTo(n.Body, site)
	if path == nil {
		return false, false, false
	}
	for i := len(path) - 1; i >= 0; i-- {
		switch p := path[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inLoop = true
		case *ast.ReturnStmt:
			if returnsNonNilError(n, p) {
				onErrorPath = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := n.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					onErrorPath = true
				}
			}
		case *ast.BlockStmt:
			// One-level dominance: the innermost if-branch that terminates
			// in an error return or panic is an error path.
			if i > 0 {
				if _, isIf := path[i-1].(*ast.IfStmt); isIf && terminatesInError(n, p) {
					onErrorPath = true
				}
			}
		}
	}
	return inLoop, onErrorPath, true
}

// PosAtLine returns the position of the first node in root starting on
// the given source line, anchoring line-granular compiler escape
// records to the AST.
func PosAtLine(fset *token.FileSet, root ast.Node, line int) token.Pos {
	best := token.NoPos
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if fset.Position(m.Pos()).Line == line && (best == token.NoPos || m.Pos() < best) {
			best = m.Pos()
		}
		return true
	})
	return best
}

// nodeAtPos finds the innermost expression or statement starting at pos.
func nodeAtPos(root ast.Node, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil || m.Pos() > pos || m.End() <= pos {
			return m == root
		}
		if m.Pos() == pos {
			best = m
		}
		return true
	})
	return best
}

// returnsNonNilError reports whether ret's last value is a non-nil
// expression in a function whose final result is an error.
func returnsNonNilError(n *FuncNode, ret *ast.ReturnStmt) bool {
	var results *ast.FieldList
	if n.Decl != nil {
		results = n.Decl.Type.Results
	} else if n.Lit != nil {
		results = n.Lit.Type.Results
	}
	if results == nil || len(results.List) == 0 || len(ret.Results) == 0 {
		return false
	}
	last := results.List[len(results.List)-1]
	lt := n.Pkg.Info.Types[last.Type].Type
	if lt == nil || !IsErrorType(lt) {
		return false
	}
	le := ast.Unparen(ret.Results[len(ret.Results)-1])
	if id, ok := le.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

// terminatesInError reports whether a block's last statement is a
// non-nil error return or a panic — the shape of a guarded error path.
func terminatesInError(n *FuncNode, b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return returnsNonNilError(n, last)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// ModuleRoot infers the on-disk module root from the loaded packages:
// the directory a package's import-path-relative suffix hangs off. The
// census artifact (-census) renders file paths relative to it so the
// committed baseline survives checkouts at different paths.
func ModuleRoot(pkgs []*Package) string {
	for _, p := range pkgs {
		if p.Dir == "" || p.PkgPath == "" {
			continue
		}
		_, sub, ok := strings.Cut(p.PkgPath, "/")
		if !ok {
			return p.Dir // the module's root package itself
		}
		suffix := filepath.FromSlash(sub)
		if strings.HasSuffix(p.Dir, string(filepath.Separator)+suffix) {
			return strings.TrimSuffix(p.Dir, string(filepath.Separator)+suffix)
		}
	}
	return ""
}

// RelPath renders file relative to the module root, with forward
// slashes; outside-root (or unresolvable) paths stay absolute.
func RelPath(root, file string) string {
	if root == "" {
		return file
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return filepath.ToSlash(rel)
}
