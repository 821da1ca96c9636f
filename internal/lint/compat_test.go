package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// compatAliases are the kind-specific names that internal/lbfamily/compat.go
// and internal/reduction/compat.go keep for the benchmark harness
// (perfbench/) alone, keyed by their package's import path. Everything
// else uses the generic API: Family[G], DeltaFamilyOf[G], AlgorithmOf[G],
// CertifyCtx and VerifySimulation.
var compatAliases = map[string]map[string]bool{
	"congesthard/internal/lbfamily": {"DeltaFamily": true, "DeltaDigraphFamily": true},
	"congesthard/internal/reduction": {
		"Algorithm": true, "DigraphAlgorithm": true,
		"CertifyDigraphCtx": true, "VerifyDigraphSimulation": true,
	},
}

// TestCompatAliasesStayPerfbenchOnly parses every .go file of the module
// outside perfbench/ and the two compat.go files, and fails on any
// reference to a compat alias: a selector through the package's import,
// or a bare identifier inside the package itself. Field names, field
// selectors and composite-literal keys that merely share a name (Report's
// Algorithm field) are not references.
func TestCompatAliasesStayPerfbenchOnly(t *testing.T) {
	root := filepath.Join("..", "..")
	files := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "perfbench" || d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || rel == "internal/lbfamily/compat.go" || rel == "internal/reduction/compat.go" {
			return nil
		}
		files++
		for _, ref := range compatRefs(t, p, rel) {
			t.Errorf("%s uses compat alias %s; use the generic API (the alias is kept for perfbench/ only)", ref.pos, ref.name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under the module root")
	}
}

type compatRef struct {
	pos  token.Position
	name string
}

// compatRefs returns the compat-alias references in the file at p, whose
// module-relative path is rel.
func compatRefs(t *testing.T, p, rel string) []compatRef {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing %s: %v", rel, err)
	}
	imported := map[string]map[string]bool{}
	for _, spec := range f.Imports {
		ipath, err := strconv.Unquote(spec.Path.Value)
		if err != nil || compatAliases[ipath] == nil {
			continue
		}
		name := path.Base(ipath)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imported[name] = compatAliases[ipath]
	}
	// An in-package file (not an external _test package) sees the
	// aliases unqualified.
	own := compatAliases["congesthard/"+path.Dir(rel)]
	if own != nil && f.Name.Name != path.Base(path.Dir(rel)) {
		own = nil
	}
	notRefs := map[*ast.Ident]bool{}
	var refs []compatRef
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			notRefs[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && imported[x.Name][n.Sel.Name] {
				refs = append(refs, compatRef{fset.Position(n.Pos()), x.Name + "." + n.Sel.Name})
			}
		case *ast.Field:
			for _, name := range n.Names {
				notRefs[name] = true
			}
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				notRefs[k] = true
			}
		case *ast.Ident:
			if own[n.Name] && !notRefs[n] {
				refs = append(refs, compatRef{fset.Position(n.Pos()), n.Name})
			}
		}
		return true
	})
	return refs
}
