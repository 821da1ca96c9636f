package lint

import "strings"

// A SuiteEntry binds an analyzer to the package paths it gates. Paths
// are module-relative prefixes: "internal/congest" covers that package,
// "internal/constructions" covers every family under it. A nil list
// applies the analyzer to every package in the module.
type SuiteEntry struct {
	Analyzer *Analyzer
	Packages []string
}

// determinismPackages are the packages whose execution must be
// replay-exact: the simulator core (and its dicongest forwarding
// shim), the reduction engine, the
// distributed algorithms, the family verifiers, the lower-bound
// constructions that build family instances, and the fault injector.
var determinismPackages = []string{
	"internal/congest",
	"internal/dicongest",
	"internal/reduction",
	"internal/algorithms",
	"internal/lbfamily",
	"internal/faults",
	"internal/constructions",
}

// ctxPackages are the layers that thread contexts through worker pools:
// the sweep verifiers, the certification engine, and the job server
// (plus its retrying client).
var ctxPackages = []string{
	"internal/lbfamily",
	"internal/reduction",
	"internal/serve",
}

// Suite returns the hardlint analyzer suite with its package gating —
// the single source of truth shared by cmd/hardlint and the self-check
// tests.
func Suite() []SuiteEntry {
	return []SuiteEntry{
		{Detrange, determinismPackages},
		{Detrand, determinismPackages},
		{Hotalloc, nil}, // directive-driven: cheap everywhere
		{Ctxflow, ctxPackages},
		{Panicsite, []string{"internal"}},
		{Obsnames, nil}, // name-driven: anywhere metrics are registered
	}
}

// Analyzers returns the six analyzers without gating, for -list and
// documentation.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detrange, Detrand, Hotalloc, Ctxflow, Panicsite, Obsnames}
}

// AnalyzerByName resolves a suite analyzer, for diagnostics rendering.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// appliesTo reports whether an entry gates the given package. pkg.Path
// is the full import path; entries match module-relative prefixes.
func (e SuiteEntry) appliesTo(pkg *Package) bool {
	if e.Packages == nil {
		return true
	}
	rel := pkg.Path
	if pkg.ModulePath != "" {
		rel = strings.TrimPrefix(rel, pkg.ModulePath+"/")
	}
	for _, p := range e.Packages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Check runs every applicable suite analyzer over pkg and returns the
// surviving diagnostics (nolint already resolved) in position order.
func Check(pkg *Package) []Diagnostic {
	var analyzers []*Analyzer
	for _, e := range Suite() {
		if e.appliesTo(pkg) {
			analyzers = append(analyzers, e.Analyzer)
		}
	}
	return RunAnalyzers(pkg, analyzers)
}
