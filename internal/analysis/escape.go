// Compiler escape-analysis ingestion for the hotalloc pass, a thin
// filter over the cached compile-diagnostic runner in compilediag.go.
package analysis

import "strings"

// An EscapeRecord is one compiler escape diagnostic: a value at a source
// position that the compiler proved heap-allocated.
type EscapeRecord = CompileDiag

// An EscapeIndex holds the escape records of a set of packages, indexed
// by file for range queries.
type EscapeIndex = CompileDiagIndex

// LoadEscapes runs the compiler's escape analysis over the given package
// import paths (resolved in dir) and returns the indexed records. Errors
// are soft by design: callers degrade to AST-only allocation detection
// (the analysistest fixtures, which live outside any module, take that
// path).
func LoadEscapes(dir string, pkgPaths []string) (*EscapeIndex, error) {
	ix, err := LoadCompileDiags(dir, pkgPaths, "-m=2")
	if err != nil {
		return nil, err
	}
	return ix.Filter(func(d CompileDiag) bool { return isEscapeHeadline(d.Message) }), nil
}

// isEscapeHeadline reports whether a -m=2 headline proves a heap
// allocation ("escapes to heap" / "moved to heap"); the "does not
// escape" negatives and inline verdicts are dropped.
func isEscapeHeadline(msg string) bool {
	return strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap")
}

// parseEscapeOutput extracts the heap-allocation headlines from raw
// `-m=2` compiler output, for tests driving the parser directly.
func parseEscapeOutput(out []byte) []EscapeRecord {
	var recs []EscapeRecord
	for _, r := range parseCompileOutput(out) {
		if isEscapeHeadline(r.Message) {
			recs = append(recs, r)
		}
	}
	return recs
}
