// Package hotalloc implements the steady-state heap-allocation pass: the
// static gate for ROADMAP item 1's allocation-free cycle core.
//
// The pass computes the module call-graph closure reachable from the
// cycle-loop entry points — cpu.Core.Run / RunChecked and every engine's
// per-cycle methods (Tick, HoldCommit, Holding) — and flags every
// allocation site inside that closure:
//
//   - AST-level sites: make, new, append (backing-array growth),
//     composite literals of reference kinds, closures, fmt calls, and
//     interface boxing of non-pointer values;
//   - compiler-proven sites: `go tool compile -m=2` escape records
//     ("escapes to heap" / "moved to heap"), ingested through
//     analysis.LoadEscapes when the module context is available.
//
// Two site classes are exempt by one-level dominance rather than by
// annotation: error-path sites (inside a return of a non-nil error, a
// panic argument, or an if-branch that terminates in one) and init-time
// sites (straight-line prologue of Run/RunChecked outside every loop).
// Everything else must carry a `//vrlint:allow hotalloc -- reason`
// justification; the Census function exports the full inventory —
// including the justified sites — as the machine-readable baseline for
// the perf overhaul.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"vrsim/internal/analysis"
)

// CompilerEscapes gates the `go tool compile -m=2` ingestion. The golden
// suite disables it: testdata fixtures live outside any module, and the
// AST-level detection alone must prove the seeded violations.
var CompilerEscapes = true

var Analyzer = &analysis.ModuleAnalyzer{
	Name: "hotalloc",
	Doc:  "flag steady-state heap allocations reachable from the cycle loop",
	Run:  run,
}

func run(pass *analysis.ModulePass) error {
	sites, err := analyze(pass.Pkgs)
	if err != nil {
		return err
	}
	for _, s := range sites {
		pass.Reportf(s.pos, "%s", s.message)
	}
	return nil
}

// A Site is one census entry: an allocation site in the cycle-reachable
// closure, with its suppression state and justification.
type Site struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Col           int    `json:"col"`
	Func          string `json:"func"`
	Kind          string `json:"kind"`
	Message       string `json:"message"`
	Suppressed    bool   `json:"suppressed"`
	Justification string `json:"justification,omitempty"`
}

// Census runs the analysis over the loaded module and returns every
// allocation site — including //vrlint:allow-justified ones, which carry
// their annotation's reason — as the machine-readable worklist for the
// cycle-core perf overhaul.
func Census(pkgs []*analysis.Package) ([]Site, error) {
	found, err := analyze(pkgs)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	// Census files are module-relative so the committed baseline survives
	// checkouts at different paths.
	root := analysis.ModuleRoot(pkgs)
	out := make([]Site, 0, len(found))
	for _, s := range found {
		p := fset.Position(s.pos)
		reason, covered := analysis.Justification(fset, files, Analyzer.Name, s.pos)
		out = append(out, Site{
			File:          analysis.RelPath(root, p.Filename),
			Line:          p.Line,
			Col:           p.Column,
			Func:          s.fn,
			Kind:          s.kind,
			Message:       s.message,
			Suppressed:    covered,
			Justification: reason,
		})
	}
	return out, nil
}

// finding is one allocation site before census/diagnostic rendering.
type finding struct {
	pos     token.Pos
	kind    string
	fn      string
	message string
}

// analyze computes the reachable closure and collects allocation sites.
func analyze(pkgs []*analysis.Package) ([]finding, error) {
	g := analysis.BuildCallGraph(pkgs)
	roots := analysis.CycleRoots(g)
	if len(roots) == 0 {
		// Partial load (e.g. vrlint on a subset without the simulator
		// core): nothing to check.
		return nil, nil
	}
	reach := g.Reachable(roots)

	var escapes *analysis.EscapeIndex
	if CompilerEscapes {
		escapes = loadEscapes(pkgs)
	}

	var out []finding
	for _, key := range g.SortedKeys() {
		if !reach[key] {
			continue
		}
		n := g.Funcs[key]
		if n.Body == nil {
			continue
		}
		out = append(out, scanFunc(n, escapes)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out, nil
}

// loadEscapes best-effort loads compiler escape records for the loaded
// packages. Failures (no module context, as in the golden suite) degrade
// to AST-only detection.
func loadEscapes(pkgs []*analysis.Package) *analysis.EscapeIndex {
	if len(pkgs) == 0 {
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.PkgPath)
	}
	ix, err := analysis.LoadEscapes(pkgs[0].Dir, paths)
	if err != nil {
		return nil
	}
	return ix
}

// scanFunc collects the allocation sites of one reachable function.
func scanFunc(n *analysis.FuncNode, escapes *analysis.EscapeIndex) []finding {
	var out []finding
	info := n.Pkg.Info
	fset := n.Pkg.Fset
	isRootDriver := analysis.IsCycleRootDriver(n)
	fname := n.Name()

	// Lines already claimed by an AST site, so compiler escape records for
	// the same expression do not double-report.
	astLines := map[int]bool{}
	add := func(pos token.Pos, kind, detail string) {
		if exempt(n, pos, isRootDriver) {
			return
		}
		astLines[fset.Position(pos).Line] = true
		out = append(out, finding{
			pos:     pos,
			kind:    kind,
			fn:      fname,
			message: fmt.Sprintf("steady-state allocation: %s in cycle-reachable %s", detail, fname),
		})
	}

	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if m.Body == n.Body {
				return true
			}
			// The literal's own body is scanned under its own key; here
			// only the closure allocation itself is the site.
			add(m.Pos(), "closure", "closure creation")
			return false
		case *ast.CallExpr:
			scanCall(info, m, add)
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if _, ok := ast.Unparen(m.X).(*ast.CompositeLit); ok {
					add(m.Pos(), "composite", "heap composite literal (&T{...})")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[m]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(m.Pos(), "composite", "reference composite literal")
				}
			}
		}
		return true
	})

	// Compiler-proven escapes inside this function's line range.
	if escapes != nil {
		start := fset.Position(n.Body.Pos())
		end := fset.Position(n.Body.End())
		for _, r := range escapes.InRange(start.Filename, start.Line, end.Line) {
			if astLines[r.Line] {
				continue
			}
			pos := analysis.PosAtLine(fset, n.Body, r.Line)
			if pos == token.NoPos {
				continue
			}
			if exempt(n, pos, isRootDriver) {
				continue
			}
			out = append(out, finding{
				pos:     pos,
				kind:    "escape",
				fn:      fname,
				message: fmt.Sprintf("steady-state allocation: %s in cycle-reachable %s", r.Message, fname),
			})
		}
	}
	return out
}

// scanCall classifies one call expression's allocation behaviour.
func scanCall(info *types.Info, call *ast.CallExpr, add func(token.Pos, string, string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make", "make")
			case "new":
				add(call.Pos(), "new", "new")
			case "append":
				add(call.Pos(), "append", "append may grow backing array")
			}
			return
		}
	}
	f := analysis.FuncObj(info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	if f.Pkg().Path() == "fmt" {
		add(call.Pos(), "fmt", fmt.Sprintf("fmt.%s call", f.Name()))
		return
	}
	// Interface boxing: a concrete non-pointer value passed to an
	// interface-typed parameter allocates its box.
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if pi >= sig.Params().Len() {
			if !sig.Variadic() {
				break
			}
			pi = sig.Params().Len() - 1
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 {
			if s, ok := pt.(*types.Slice); ok && !isEllipsisCall(call) {
				pt = s.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // single-word values: no box allocation
		}
		add(arg.Pos(), "box", fmt.Sprintf("interface boxing of %s", types.TypeString(at, nil)))
	}
}

// isEllipsisCall reports f(xs...).
func isEllipsisCall(call *ast.CallExpr) bool { return call.Ellipsis.IsValid() }

// exempt applies the one-level dominance exemptions: error-path sites and
// the init-time prologue of the Run/RunChecked drivers. The path walk
// itself lives in analysis.SiteContext.
func exempt(n *analysis.FuncNode, pos token.Pos, isRootDriver bool) bool {
	inLoop, onErrorPath, ok := analysis.SiteContext(n, pos)
	if !ok {
		return false
	}
	if onErrorPath {
		return true
	}
	if isRootDriver && !inLoop {
		return true // init-time prologue of the cycle driver
	}
	return false
}
