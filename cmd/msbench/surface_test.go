package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// deadAllowed lists the exported top-level names under internal/ that no
// non-test file references, each with the reason it stays. Keys are
// "pkg.Name", pkg being the path below internal/.
var deadAllowed = map[string]string{
	"chaos.Launch":           "fault-injection harness; its only callers are the chaos tests, which CI runs under -race",
	"chaos.Run":              "fault-injection harness; its only callers are the chaos tests, which CI runs under -race",
	"chaos.FromAvailability": "fault-injection harness; its only callers are the chaos tests, which CI runs under -race",
	"chaos.Random":           "fault-injection harness; its only callers are the chaos tests, which CI runs under -race",
	"policy.Names":           "test helper: cmd/mscluster's tests build a cluster config for every preset name",
	"policy.Presets":         "test helper: the httpcluster parity test drives every preset through both planes",
}

// goFile is one parsed Go file of the repository.
type goFile struct {
	dir  string // slash path relative to the repository root
	test bool
	ast  *ast.File
}

// parseRepo parses every Go file of the repository, the benchmark/
// module included; testdata, benchmark/out and dot directories are
// skipped.
func parseRepo(t *testing.T) []goFile {
	t.Helper()
	const root = "../.."
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "benchmark/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: filepath.ToSlash(filepath.Dir(rel)), test: strings.HasSuffix(rel, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// declared calls fn with every identifier that a top-level declaration
// of f declares; method is true for a method's name.
func declared(f *ast.File, fn func(id *ast.Ident, method bool)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn(d.Name, d.Recv != nil)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(s.Name, false)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						fn(id, false)
					}
				}
			}
		}
	}
}

// exportedDecls returns the exported top-level funcs, types, vars and
// consts that the non-test files declare, as "dir.Name". Methods are
// left out: interface satisfaction hides their callers.
func exportedDecls(files []goFile) map[string]bool {
	decls := map[string]bool{}
	for _, f := range files {
		if !f.test {
			declared(f.ast, func(id *ast.Ident, method bool) {
				if !method && id.IsExported() {
					decls[f.dir+"."+id.Name] = true
				}
			})
		}
	}
	return decls
}

// references returns, as "dir.Name", every top-level name of a msweb
// package that the file refers to: an alias.Name selector on an import
// of msweb/..., and any other identifier, counted against the file's own
// directory. The declaring identifier of a top-level name is not a
// reference to it.
func references(f goFile, pkgName map[string]string) []string {
	imports := map[string]string{} // local name → dir
	for _, spec := range f.ast.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		dir, ok := strings.CutPrefix(path, "msweb/")
		if !ok {
			continue
		}
		name := pkgName[dir]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = dir
	}
	declaring := map[*ast.Ident]bool{}
	declared(f.ast, func(id *ast.Ident, _ bool) { declaring[id] = true })
	var refs []string
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
				if dir, ok := imports[x.Name]; ok {
					refs = append(refs, dir+"."+n.Sel.Name)
					return false
				}
			}
			// n.Sel names a field or method, never a top-level name.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !declaring[n] && n != f.ast.Name {
				refs = append(refs, f.dir+"."+n.Name)
			}
		}
		return true
	}
	ast.Inspect(f.ast, visit)
	return refs
}

// packageNames maps each directory to the package its non-test files
// declare.
func packageNames(files []goFile) map[string]string {
	names := map[string]string{}
	for _, f := range files {
		if !f.test {
			names[f.dir] = f.ast.Name.Name
		}
	}
	return names
}

// TestNoDeadExports keeps internal/ free of exported top-level names that
// nothing uses: every exported func, type, var and const declared in a
// non-test file under internal/ must be referenced by a non-test file
// somewhere in the repository (benchmark/ included), or be on
// deadAllowed with its reason. A stale allowlist entry (now used, or no
// longer declared) fails too. Methods are out of scope.
func TestNoDeadExports(t *testing.T) {
	files := parseRepo(t)
	names := packageNames(files)
	used := map[string]bool{}
	for _, f := range files {
		if !f.test {
			for _, r := range references(f, names) {
				used[r] = true
			}
		}
	}
	decls := exportedDecls(files)
	var dead []string
	for d := range decls {
		if key, ok := strings.CutPrefix(d, "internal/"); ok && !used[d] {
			if _, allowed := deadAllowed[key]; !allowed {
				dead = append(dead, key)
			}
		}
	}
	slices.Sort(dead)
	for _, key := range dead {
		t.Errorf("internal/%s is exported and no non-test file uses it: delete it, or add it to deadAllowed with a reason", key)
	}
	for key, reason := range deadAllowed {
		switch {
		case reason == "":
			t.Errorf("deadAllowed[%q] has no reason", key)
		case !decls["internal/"+key]:
			t.Errorf("deadAllowed[%q]: internal/%s is no longer declared; drop the entry", key, key)
		case used["internal/"+key]:
			t.Errorf("deadAllowed[%q]: internal/%s is used now; drop the entry", key, key)
		}
	}
}

// TestBenchmarkNamesDeclared mirrors the benchmark module's compile check
// for top-level names: tier-1 never builds benchmark/, so a deletion
// under internal/ that it still names would otherwise pass. Every
// alias.Name that a file under benchmark/ takes from a msweb/internal/...
// package must be declared there. Methods and fields stay covered by
// building and testing the benchmark module.
func TestBenchmarkNamesDeclared(t *testing.T) {
	files := parseRepo(t)
	names := packageNames(files)
	decls := exportedDecls(files)
	checked := 0
	for _, f := range files {
		if f.dir != "benchmark" && !strings.HasPrefix(f.dir, "benchmark/") {
			continue
		}
		for _, r := range references(f, names) {
			if !strings.HasPrefix(r, "internal/") {
				continue
			}
			checked++
			if !decls[r] {
				t.Errorf("%s: names msweb/%s, which is not declared", f.dir, r)
			}
		}
	}
	if checked == 0 {
		t.Fatal("benchmark/ names no msweb/internal identifier; the scan no longer sees it")
	}
}
