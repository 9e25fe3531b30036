package analysis_test

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func load(t *testing.T, rel string) (*analysis.Loader, *analysis.Unit) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	u, err := loader.LoadDir(rel)
	if err != nil {
		t.Fatal(err)
	}
	return loader, u
}

// TestLoaderResolvesModuleImports proves the loader typechecks a
// package whose import graph crosses module-internal packages: the app
// fixture imports the lib fixture by full module path, and both must
// come back fully typed.
func TestLoaderResolvesModuleImports(t *testing.T) {
	_, u := load(t, "internal/analysis/testdata/src/app")
	if u.Pkg.Name() != "app" {
		t.Fatalf("package name = %q, want app", u.Pkg.Name())
	}
	found := false
	for _, imp := range u.Pkg.Imports() {
		if strings.HasSuffix(imp.Path(), "testdata/src/lib") {
			found = true
			if imp.Scope().Lookup("Answer") == nil {
				t.Errorf("lib import resolved without its Answer symbol")
			}
		}
	}
	if !found {
		t.Errorf("app fixture's lib import was not resolved; imports: %v", u.Pkg.Imports())
	}
	if u.Pkg.Scope().Lookup("Double") == nil {
		t.Errorf("app fixture missing its own Double symbol")
	}
}

// TestLoaderHonorsBuildConstraints proves the loader picks a package's
// files the way the go tool does: the fixture redeclares a function in a
// file whose build constraint never holds, and only a loader that skips
// that file typechecks it.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	_, u := load(t, "internal/analysis/testdata/src/tagged")
	if len(u.Files) != 1 {
		t.Fatalf("loaded %d files, want only tagged.go", len(u.Files))
	}
	if u.Pkg.Scope().Lookup("Impl") == nil {
		t.Error("tagged fixture missing its Impl declaration")
	}
}

// TestLoadSkipsTestdata proves recursive patterns exclude testdata
// trees, matching the go tool's convention — otherwise the driver
// would report the fixtures' deliberate violations on every CI run.
func TestLoadSkipsTestdata(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load("./internal/analysis/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("no packages matched ./internal/analysis/...")
	}
	seen := map[string]bool{}
	for _, u := range units {
		if strings.Contains(u.Path, "testdata") {
			t.Errorf("recursive pattern matched testdata package %s", u.Path)
		}
		seen[u.Path] = true
	}
	for _, want := range []string{
		"repro/internal/analysis",
		"repro/internal/analysis/passes/epochpin",
		"repro/internal/analysis/passes/poolpair",
		"repro/internal/analysis/passes/atomicfield",
		"repro/internal/analysis/passes/ctxflow",
	} {
		if !seen[want] {
			t.Errorf("pattern missed package %s (got %v)", want, units)
		}
	}
}

// TestRegistrationOrder proves passes run in exactly the order they
// were registered, and that duplicate, reserved and anonymous passes
// are rejected — suppression comments must stay unambiguous.
func TestRegistrationOrder(t *testing.T) {
	a := analysis.NewAnalyzer()
	noop := func(u *analysis.Unit, report func(token.Pos, string)) {}
	for _, name := range []string{"ccc", "aaa", "bbb"} {
		if err := a.Register(analysis.Pass{Name: name, Run: noop}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, p := range a.Passes() {
		got = append(got, p.Name)
	}
	if strings.Join(got, ",") != "ccc,aaa,bbb" {
		t.Errorf("registration order not preserved: %v", got)
	}
	if err := a.Register(analysis.Pass{Name: "aaa", Run: noop}); err == nil {
		t.Error("duplicate pass name accepted")
	}
	if err := a.Register(analysis.Pass{Name: analysis.EscapePass, Run: noop}); err == nil {
		t.Error("reserved pass name accepted")
	}
	if err := a.Register(analysis.Pass{Run: noop}); err == nil {
		t.Error("anonymous pass accepted")
	}
}

// reportOnVars returns a pass that reports on the declaration line of
// each named package-level variable, in the order given.
func reportOnVars(name string, vars ...string) analysis.Pass {
	return analysis.Pass{
		Name: name,
		Doc:  "test pass",
		Run: func(u *analysis.Unit, report func(token.Pos, string)) {
			for _, want := range vars {
				for _, f := range u.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Names) > 0 && vs.Names[0].Name == want {
							report(vs.Pos(), "flagged "+want)
						}
						return true
					})
				}
			}
		},
	}
}

// TestFindingsSorted proves findings come back ordered by position
// regardless of the order passes emitted them, and that two findings
// on one line keep registration order (the sort is stable).
func TestFindingsSorted(t *testing.T) {
	_, esc := load(t, "internal/analysis/testdata/src/escapes")
	// zz reports the LATER variable (Unknown) before the earlier one.
	b := analysis.NewAnalyzer()
	if err := b.Register(reportOnVars("zz", "Unknown", "Covered")); err != nil {
		t.Fatal(err)
	}
	findings := b.Run([]*analysis.Unit{esc})
	var zz []analysis.Finding
	for _, f := range findings {
		if f.Pass == "zz" {
			zz = append(zz, f)
		}
	}
	if len(zz) != 2 {
		t.Fatalf("want 2 zz findings, got %v", findings)
	}
	if zz[0].Pos.Line >= zz[1].Pos.Line {
		t.Errorf("findings not sorted by line: %v", zz)
	}
	if !strings.Contains(zz[0].Message, "Covered") || !strings.Contains(zz[1].Message, "Unknown") {
		t.Errorf("sort did not reorder by position: %v", zz)
	}

	// Same line, two passes: registration order must survive the sort.
	c := analysis.NewAnalyzer()
	if err := c.Register(reportOnVars("zz", "Unknown")); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(reportOnVars("aa", "Unknown")); err != nil {
		t.Fatal(err)
	}
	got := c.Run([]*analysis.Unit{esc})
	var same []string
	for _, f := range got {
		if f.Message == "flagged Unknown" {
			same = append(same, f.Pass)
		}
	}
	if strings.Join(same, ",") != "zz,aa" {
		t.Errorf("same-line findings lost registration order: %v", same)
	}
}

// TestEscapeSuppression proves the //lint:escape lifecycle end to end
// on the escapes fixture: a covering suppression silences its finding,
// and unused, malformed, unknown-pass and reasonless suppressions each
// surface as hygiene findings of the reserved escape pass.
func TestEscapeSuppression(t *testing.T) {
	_, u := load(t, "internal/analysis/testdata/src/escapes")
	a := analysis.NewAnalyzer()
	if err := a.Register(reportOnVars("demo", "Covered", "NoReason")); err != nil {
		t.Fatal(err)
	}
	findings := a.Run([]*analysis.Unit{u})
	for _, f := range findings {
		if f.Pass == "demo" {
			t.Errorf("suppressed demo finding leaked through: %s", f.String())
		}
	}
	wantParts := []string{
		"unused //lint:escape suppression",
		"malformed //lint:escape comment",
		`unknown pass "nosuchpass"`,
		"needs a reason",
	}
	if len(findings) != len(wantParts) {
		t.Fatalf("want %d hygiene findings, got %d: %v", len(wantParts), len(findings), findings)
	}
	for i, part := range wantParts {
		if findings[i].Pass != analysis.EscapePass {
			t.Errorf("finding %d has pass %q, want escape", i, findings[i].Pass)
		}
		if !strings.Contains(findings[i].Message, part) {
			t.Errorf("finding %d = %q, want it to mention %q", i, findings[i].Message, part)
		}
	}
}

// TestFindingString pins the canonical rendering the driver prints and
// the fixtures' want comments match against.
func TestFindingString(t *testing.T) {
	f := analysis.Finding{
		Pos:     token.Position{Filename: "x.go", Line: 3, Column: 7},
		Pass:    "demo",
		Message: "m",
	}
	if got, want := f.String(), "x.go:3: [demo] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
