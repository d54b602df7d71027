// Cached `go tool compile` diagnostic ingestion for the hotalloc pass,
// which cross-checks its AST-level allocation reasoning against the
// compiler's own -m=2 escape headlines.
//
// `go build -gcflags=...` is the obvious way to get these diagnostics,
// but its output is suppressed whenever the build cache is warm — a
// second vrlint run would silently see zero records. Instead the loader
// invokes `go tool compile` directly, per package, with an importcfg
// assembled from the same `go list -e -export -json -deps` data the
// package loader uses. That path is cache-free and deterministic: the
// compiler always runs, always prints, and only the handful of
// simulator packages under analysis are recompiled.
//
// Results are cached per (dir, package set, flag set) for the lifetime
// of the process, mirroring the export-data loader's in-memory caching,
// so repeated hotalloc runs (the lint pass and the census) share one
// compile.
package analysis

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A CompileDiag is one headline compiler diagnostic: a message at a
// source position, with indented flow-explanation lines already dropped.
type CompileDiag struct {
	File    string // absolute path
	Line    int
	Col     int
	Message string // e.g. "escapes to heap", "moved to heap: x"
}

// A CompileDiagIndex holds the diagnostics of a set of packages, indexed
// by file for range and point queries.
type CompileDiagIndex struct {
	byFile map[string][]CompileDiag // sorted by line, then column
}

// InRange returns the records in file whose line lies in [startLine,
// endLine].
func (ix *CompileDiagIndex) InRange(file string, startLine, endLine int) []CompileDiag {
	if ix == nil {
		return nil
	}
	recs := ix.byFile[file]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Line >= startLine })
	j := sort.Search(len(recs), func(i int) bool { return recs[i].Line > endLine })
	return recs[i:j]
}

// Filter returns a new index holding only the records keep accepts.
func (ix *CompileDiagIndex) Filter(keep func(CompileDiag) bool) *CompileDiagIndex {
	if ix == nil {
		return nil
	}
	out := &CompileDiagIndex{byFile: map[string][]CompileDiag{}}
	for file, recs := range ix.byFile {
		for _, r := range recs {
			if keep(r) {
				out.byFile[file] = append(out.byFile[file], r)
			}
		}
	}
	return out
}

var compileDiagCache struct {
	sync.Mutex
	m map[string]*CompileDiagIndex
}

// LoadCompileDiags compiles the given package import paths (resolved in
// dir) with the extra gc flags appended and returns every headline
// diagnostic the compiler printed. Errors are soft by design: callers
// degrade to AST-only reasoning (the analysistest fixtures, which live
// outside any module, take that path).
func LoadCompileDiags(dir string, pkgPaths []string, gcFlags ...string) (*CompileDiagIndex, error) {
	key := dir + "\x00" + strings.Join(pkgPaths, "\x00") + "\x01" + strings.Join(gcFlags, "\x00")
	compileDiagCache.Lock()
	if compileDiagCache.m == nil {
		compileDiagCache.m = map[string]*CompileDiagIndex{}
	}
	if ix, ok := compileDiagCache.m[key]; ok {
		compileDiagCache.Unlock()
		return ix, nil
	}
	compileDiagCache.Unlock()

	ix, err := loadCompileDiags(dir, pkgPaths, gcFlags)
	if err != nil {
		return nil, err
	}
	compileDiagCache.Lock()
	compileDiagCache.m[key] = ix
	compileDiagCache.Unlock()
	return ix, nil
}

func loadCompileDiags(dir string, pkgPaths []string, gcFlags []string) (*CompileDiagIndex, error) {
	listed, err := goList(dir, pkgPaths)
	if err != nil {
		return nil, err
	}
	// importcfg: every dependency's export data, shared by all targets.
	var cfg bytes.Buffer
	var targets []*listedPackage
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			fmt.Fprintf(&cfg, "packagefile %s=%s\n", p.ImportPath, p.Export)
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	tmp, err := os.MkdirTemp("", "vrlint-compile-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfgFile := filepath.Join(tmp, "importcfg")
	if err := os.WriteFile(cfgFile, cfg.Bytes(), 0o644); err != nil {
		return nil, err
	}

	ix := &CompileDiagIndex{byFile: map[string][]CompileDiag{}}
	// Duplicate positions are collapsed across compilation units too:
	// cross-package inlining re-reports a callee's diagnostics at the
	// callee's own source position from every importing unit.
	seen := map[string]bool{}
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		args := []string{"tool", "compile", "-p", t.ImportPath, "-importcfg", cfgFile,
			"-o", filepath.Join(tmp, "out.o")}
		args = append(args, gcFlags...)
		for _, f := range t.GoFiles {
			args = append(args, filepath.Join(t.Dir, f))
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = t.Dir
		// Diagnostics (-m, -d=ssa/...) go to stdout; hard errors to
		// stderr. Capture both — parse the former, report the latter.
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go tool compile %s %s: %v\n%s",
				strings.Join(gcFlags, " "), t.ImportPath, err, stderr.String())
		}
		for _, r := range parseCompileOutput(stdout.Bytes()) {
			if !filepath.IsAbs(r.File) {
				r.File = filepath.Join(t.Dir, r.File)
			}
			key := fmt.Sprintf("%s:%d:%d:%s", r.File, r.Line, r.Col, r.Message)
			if seen[key] {
				continue
			}
			seen[key] = true
			ix.byFile[r.File] = append(ix.byFile[r.File], r)
		}
	}
	for _, recs := range ix.byFile {
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Line != recs[j].Line {
				return recs[i].Line < recs[j].Line
			}
			return recs[i].Col < recs[j].Col
		})
	}
	return ix, nil
}

// parseCompileOutput extracts the headline diagnostics from compiler
// stderr, dropping the indented flow-explanation lines of -m=2 output
// and positionless lines (e.g. <autogenerated> equality methods).
// Duplicate positions with identical messages (the verbose form repeats
// the headline) collapse to one record.
func parseCompileOutput(out []byte) []CompileDiag {
	var recs []CompileDiag
	seen := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		file, lineNo, col, msg, ok := splitDiagLine(line)
		if !ok {
			continue
		}
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			continue // flow explanation
		}
		msg = strings.TrimSuffix(msg, ":")
		key := fmt.Sprintf("%s:%d:%d:%s", file, lineNo, col, msg)
		if seen[key] {
			continue
		}
		seen[key] = true
		recs = append(recs, CompileDiag{File: file, Line: lineNo, Col: col, Message: msg})
	}
	return recs
}

// splitDiagLine parses "file.go:line:col: message". It anchors on the
// ".go:" boundary so Windows-style or dotted paths cannot confuse the
// split.
func splitDiagLine(line string) (file string, lineNo, col int, msg string, ok bool) {
	i := strings.Index(line, ".go:")
	if i < 0 {
		return "", 0, 0, "", false
	}
	file = line[:i+3]
	rest := line[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return "", 0, 0, "", false
	}
	lineNo, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	msg = strings.TrimPrefix(parts[2], " ")
	return file, lineNo, col, msg, true
}
