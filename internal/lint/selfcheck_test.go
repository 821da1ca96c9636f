package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestSuiteCleanOnRepo is the dogfood gate: the full hardlint suite,
// with its production package gating, must report zero findings on the
// module itself. This is the same check `go run ./cmd/hardlint ./...`
// performs in CI, wired into `go test` so a finding fails both gates.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module against compiler export data")
	}
	pkgs, err := LoadPackages(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from module root")
	}
	for _, pkg := range pkgs {
		for _, d := range Check(pkg) {
			t.Errorf("%s", d)
		}
	}
}

// TestHotpathDirectiveSync pins //hardness:hotpath to the functions the
// allocs-guard benchmarks watch (congest.Run, behind both
// BenchmarkCongestRunCore and BenchmarkDicongestRunCore; the sweep
// engine's worker loop; the oracle recursions; the delta toggles). If one of these is renamed or
// loses its directive, hotalloc silently stops guarding the loop the
// benchmark measures — this test makes that drift loud. A target with a
// recv matches only methods on that receiver type, for files where the
// name alone is ambiguous (hamilton.go has two search methods).
func TestHotpathDirectiveSync(t *testing.T) {
	targets := []struct {
		file string
		recv string
		fn   string
	}{
		{"internal/congest/congest.go", "", "Run"},
		{"internal/lbfamily/sweep.go", "", "worker"},
		{"internal/solver/independent.go", "", "recurse"},
		{"internal/solver/mds.go", "", "recurse"},
		{"internal/solver/maxcut.go", "", "recurse"},
		{"internal/solver/hamilton.go", "ham64", "search"},
		{"internal/graph/delta.go", "", "ToggleEdge"},
		{"internal/graph/deltadigraph.go", "", "ToggleArc"},
	}
	for _, tgt := range targets {
		path := filepath.Join("..", "..", filepath.FromSlash(tgt.file))
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", tgt.file, err)
		}
		// Hotpath only consults syntax and comments, so an untyped
		// Package shell is enough here.
		pkg := &Package{Fset: fset, Files: []*ast.File{f}}
		found := false
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != tgt.fn || (tgt.recv != "" && recvName(fd) != tgt.recv) {
				continue
			}
			found = true
			if !pkg.Hotpath(fd) {
				t.Errorf("%s: %s lost its //hardness:hotpath directive (allocs-guard benchmarked)", tgt.file, tgt.fn)
			}
		}
		if !found {
			t.Errorf("%s: function %s not found — renamed? update the directive and this test", tgt.file, tgt.fn)
		}
	}
}

// recvName returns the receiver base type of a method declaration ("" for
// a plain function).
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
