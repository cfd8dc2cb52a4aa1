package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
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
	name string // base name
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
		files = append(files, goFile{dir: filepath.ToSlash(filepath.Dir(rel)), name: d.Name(), test: strings.HasSuffix(rel, "_test.go"), ast: f})
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

// typeMembers calls fn with the name of each type that a top-level
// declaration of f declares, member "", and with each of its fields,
// embedded types (embedded true) and interface methods; for each method
// f declares, fn gets the receiver's type and the method's name.
func typeMembers(f *ast.File, fn func(typ, member string, embedded bool)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				fn(typeName(d.Recv.List[0].Type), d.Name.Name, false)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				fn(ts.Name.Name, "", false)
				var fields []*ast.Field
				switch t := ts.Type.(type) {
				case *ast.StructType:
					fields = t.Fields.List
				case *ast.InterfaceType:
					fields = t.Methods.List
				}
				for _, fld := range fields {
					for _, id := range fld.Names {
						fn(ts.Name.Name, id.Name, false)
					}
					if len(fld.Names) == 0 {
						fn(ts.Name.Name, typeName(fld.Type), true)
					}
				}
			}
		}
	}
}

// typeName is the bare name of a receiver or embedded type: T for T,
// *T, T[P] and pkg.T.
func typeName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
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

// docRefAllowed lists the references in the docs that do not resolve,
// each with the reason it stays. A stale entry (the reference resolves
// now, or no doc makes it) fails TestDocReferences, as in deadAllowed.
var docRefAllowed = map[string]string{
	"trace.generate": "a span name of the benchmark's tracer (benchmark/sim.go), which EXPERIMENTS.md's setup_s table quotes",
	"core.sample_w":  "a span name of the benchmark's tracer (benchmark/sim.go), which EXPERIMENTS.md's setup_s table quotes",
}

// The documents whose references TestDocReferences checks, and the
// shapes of reference it resolves in their code spans and fences.
var (
	docFiles    = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	testFuncRef = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	dottedRef   = regexp.MustCompile(`(?:^|[^\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)
)

// docIndex is what a doc reference may resolve to, from parseRepo's
// files and the repository's top-level entries.
type docIndex struct {
	names   map[string]bool            // top-level names of any file, methods left out
	decls   map[string]bool            // "pkg.Name" for every top-level name of an internal/ package
	pkgs    map[string]bool            // internal/ package names
	members map[string]map[string]bool // fields and methods of each type, keyed "Type" and, in internal/, "pkg.Type"
	embeds  map[string][]string        // the bare names of the types each type embeds, keyed as members
	goFiles map[string]bool            // Go file base names
	top     map[string]bool            // top-level entries of the repository, dot entries left out
}

func newDocIndex(t *testing.T, files []goFile) docIndex {
	t.Helper()
	ix := docIndex{names: map[string]bool{}, decls: map[string]bool{}, pkgs: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}, goFiles: map[string]bool{}, top: map[string]bool{}}
	for _, f := range files {
		ix.goFiles[f.name] = true
		pkg, internal := strings.CutPrefix(f.dir, "internal/")
		if internal {
			ix.pkgs[pkg] = true
		}
		declared(f.ast, func(id *ast.Ident, method bool) {
			if method {
				return
			}
			ix.names[id.Name] = true
			if internal {
				ix.decls[pkg+"."+id.Name] = true
			}
		})
		typeMembers(f.ast, func(typ, member string, embedded bool) {
			keys := []string{typ}
			if internal {
				keys = append(keys, pkg+"."+typ)
			}
			for _, k := range keys {
				if ix.members[k] == nil {
					ix.members[k] = map[string]bool{}
				}
				ix.members[k][member] = true
				if embedded {
					ix.embeds[k] = append(ix.embeds[k], member)
				}
			}
		})
	}
	entries, err := os.ReadDir("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), ".") {
			ix.top[e.Name()] = true
		}
	}
	return ix
}

// refs returns the references that code (a code span or a fenced
// line) makes: Test/Benchmark/Fuzz names, pkg.Name of an internal/
// package, Type.Member and pkg.Type.Member of a declared type (a field,
// embedded type or method), and repository paths (a path whose first
// element is a top-level entry, or a bare Go file name). Paths with
// placeholders (<name>, {a,b}, $VAR) are skipped; * is a glob. A pkg.go
// is a file name, not a qualified identifier, and a dotted name inside
// a path or after another dot is not a reference of its own.
func (ix docIndex) refs(code string) []string {
	out := testFuncRef.FindAllString(code, -1)
	for _, m := range dottedRef.FindAllStringSubmatch(code, -1) {
		parts := strings.Split(m[1], ".")
		switch {
		case ix.pkgs[parts[0]] && parts[1] != "go":
			n := 2
			if len(parts) > 2 && ix.members[parts[0]+"."+parts[1]] != nil {
				n = 3
			}
			out = append(out, strings.Join(parts[:n], "."))
		case !ix.pkgs[parts[0]] && ix.members[parts[0]] != nil:
			out = append(out, parts[0]+"."+parts[1])
		}
	}
	for _, field := range strings.Fields(code) {
		p := strings.Trim(field, "()[],;:'\"")
		p = strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(p, "./"), "..."), "/")
		if p == "" || strings.ContainsAny(p, "<{$") {
			continue
		}
		first, _, nested := strings.Cut(p, "/")
		if nested && ix.top[first] || !nested && strings.HasSuffix(p, ".go") {
			out = append(out, p)
		}
	}
	return out
}

func (ix docIndex) resolves(ref string) bool {
	switch {
	case testFuncRef.FindString(ref) == ref:
		return ix.names[ref]
	case strings.Contains(ref, "/"):
		m, _ := filepath.Glob("../../" + ref)
		return len(m) > 0
	case strings.HasSuffix(ref, ".go"):
		return ix.goFiles[ref]
	}
	dot := strings.LastIndexByte(ref, '.')
	if ix.pkgs[ref[:dot]] {
		return ix.decls[ref]
	}
	return ix.hasMember(ref[:dot], ref[dot+1:], 4)
}

// hasMember reports whether typ declares member or promotes it from a
// type it embeds, looking at most depth embeddings deep: types are
// matched by bare name, so an embedding chain may loop.
func (ix docIndex) hasMember(typ, member string, depth int) bool {
	if ix.members[typ][member] {
		return true
	}
	for _, e := range ix.embeds[typ] {
		if depth > 0 && ix.hasMember(e, member, depth-1) {
			return true
		}
	}
	return false
}

// unresolvedDocRefs maps each reference of docs (name → text) that does
// not resolve to the "doc:line" places that make it. Code spans may wrap
// across lines; fenced lines are code whole.
func unresolvedDocRefs(ix docIndex, docs map[string]string) map[string][]string {
	bad := map[string][]string{}
	note := func(doc string, line int, code string) {
		for _, ref := range ix.refs(code) {
			if !ix.resolves(ref) {
				bad[ref] = append(bad[ref], fmt.Sprintf("%s:%d", doc, line))
			}
		}
	}
	for doc, text := range docs {
		lines := strings.Split(text, "\n")
		prose := make([]string, len(lines))
		fenced := false
		for i, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				note(doc, i+1, line)
			} else {
				prose[i] = line
			}
		}
		joined := strings.Join(prose, "\n")
		for _, m := range codeSpan.FindAllStringSubmatchIndex(joined, -1) {
			note(doc, 1+strings.Count(joined[:m[0]], "\n"), strings.ReplaceAll(joined[m[2]:m[3]], "\n", " "))
		}
	}
	return bad
}

// docRefProblems reports every unresolved reference that allowed does
// not list, and every allowed entry without a reason or no longer
// unresolved.
func docRefProblems(unresolved map[string][]string, allowed map[string]string) []string {
	var problems []string
	for ref, at := range unresolved {
		if _, ok := allowed[ref]; !ok {
			slices.Sort(at)
			problems = append(problems, fmt.Sprintf("%s: %s resolves to no test, internal/ declaration, type member or repository path: fix the doc, or add it to docRefAllowed with a reason", strings.Join(at, ", "), ref))
		}
	}
	for ref, reason := range allowed {
		switch _, still := unresolved[ref]; {
		case reason == "":
			problems = append(problems, fmt.Sprintf("docRefAllowed[%q] has no reason", ref))
		case !still:
			problems = append(problems, fmt.Sprintf("docRefAllowed[%q]: no doc makes this reference unresolved any more; drop the entry", ref))
		}
	}
	slices.Sort(problems)
	return problems
}

// TestDocReferences keeps README.md, DESIGN.md and EXPERIMENTS.md in step
// with the code: in their code spans and fences, every Test, Benchmark or
// Fuzz name must be declared, every pkg.Name of an internal/ package must
// be a top-level name of it, every Type.Member and pkg.Type.Member of a
// declared type must be a field or method of it (promoted ones count),
// and every repository path must exist, unless docRefAllowed gives a
// reason.
func TestDocReferences(t *testing.T) {
	ix := newDocIndex(t, parseRepo(t))
	docs := map[string]string{}
	for _, doc := range docFiles {
		data, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		docs[doc] = string(data)
	}
	for _, p := range docRefProblems(unresolvedDocRefs(ix, docs), docRefAllowed) {
		t.Error(p)
	}

	t.Run("shapes", func(t *testing.T) {
		got := unresolvedDocRefs(ix, map[string]string{"x.md": "`TestNoDeadExports` and `TestGone`,\n" +
			"`core.NewShardMap`, `core.Gone`, `trace.go`, `cmd/msbench/surface_test.go`, `edge.go`, `gone.go`,\n" +
			"`bench/gone.txt`, `results/<name>.txt`, `go test ./cmd/gone/...` and a `span\nthat wraps: metrics.Gone`\n" +
			"`core.Load.Validate`, `core.Load.Gone`, `Cluster.submitNow`, `Cluster.gone`, `Engine.Feed(n, at)`,\n" +
			"`Node.acceptLoop`, `Master.Handler()`, `trace.Request.Arrival.x`, `internal/trace/io.go`, `x.Gone`\n" +
			"```sh\ngo run ./internal/gone\n```\n"})
		want := map[string][]string{"TestGone": {"x.md:1"}, "core.Gone": {"x.md:2"}, "gone.go": {"x.md:2"},
			"bench/gone.txt": {"x.md:3"}, "cmd/gone": {"x.md:3"}, "metrics.Gone": {"x.md:3"},
			"core.Load.Gone": {"x.md:5"}, "Cluster.gone": {"x.md:5"}, "internal/gone": {"x.md:8"}}
		if !maps.EqualFunc(got, want, slices.Equal) {
			t.Errorf("unresolved %v, want %v", got, want)
		}
	})
	t.Run("stale allowlist entry", func(t *testing.T) {
		got := docRefProblems(map[string][]string{"core.Gone": {"x.md:1"}}, map[string]string{"core.Gone": "kept", "metrics.Percentile": "kept as history"})
		if len(got) != 1 || !strings.Contains(got[0], `docRefAllowed["metrics.Percentile"]`) {
			t.Errorf("problems %q, want one stale entry for metrics.Percentile", got)
		}
	})
}
