package repro_test

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engineflags"
)

// Docs-drift checks: the docs a newcomer reads must describe the tree as it
// is. Commands, packages and make targets they name must exist, every
// `DESIGN §N` must land on a section, and DESIGN.md must stay one top-down
// document rather than grow a section per change.

// legibleDocs are the documents held to the tree. CHANGES.md, ROADMAP.md
// and ISSUE.md narrate history and plans, and benchmark/ is fenced, so
// they are free to name what no longer exists.
var legibleDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

const designMaxLines = 600

var (
	docPath     = regexp.MustCompile(`(?:^|[^\w/]|\./)(cmd|examples|internal)/([a-z0-9_]+)`)
	makeInline  = regexp.MustCompile("`make((?:\\s+[a-z][a-z0-9-]*)+)`")
	makeCommand = regexp.MustCompile(`^make((?: [a-z][a-z0-9-]*)+)`)
	makeTarget  = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	designRef   = regexp.MustCompile(`DESIGN(?:\.md)? §(\w+(?:\.\d+)?)`)
	bareRef     = regexp.MustCompile(`§(\d\w*(?:\.\d+)?)`)
	designH2    = regexp.MustCompile(`^## (\d+)\. `)
	engineRow   = regexp.MustCompile("^\\| `(\\w+)` \\| `(-[a-z-]+)` \\|")
	codeSpan    = regexp.MustCompile("`[^`\n]+`")
	flagToken   = regexp.MustCompile(`(?:^|[\s(\[=|'"])--?([a-z][a-z0-9-]*)`)
	qualIdent   = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(\*)?(?:\.([A-Za-z_]\w*))?`)
	flagDecl    = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(?:Var)?\((?:&?[\w.]+, )?"([\w-]+)"`)
	routeDecl   = regexp.MustCompile(`\.Handle(?:Func)?\("(?:[A-Z]+ )?(/[^"]*)"`)
	routeToken  = regexp.MustCompile("(?:^|[^\\w/.])(/v1/[^\\s`'\")]*|/metrics|/healthz|/readyz)")
	sitePrefix  = regexp.MustCompile(`strings\.HasPrefix\(p, "(/[^"]+)"\)`)
)

// goToolFlags are the `go test` / `go build` (and `gofmt -l`) flags the docs
// use; every other -flag they show must be one a FlagSet in this repo
// registers.
var goToolFlags = []string{"race", "short", "cpu", "run", "bench", "benchtime", "count", "fuzz", "fuzztime", "shuffle", "v", "l"}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// designSections returns the numbers of DESIGN.md's `## N.` headings as
// strings, failing on any `## ` heading that is not numbered that way or is
// out of sequence.
func designSections(t *testing.T) map[string]bool {
	t.Helper()
	sections := map[string]bool{}
	for _, line := range strings.Split(readDoc(t, "DESIGN.md"), "\n") {
		if !strings.HasPrefix(line, "## ") {
			continue
		}
		m := designH2.FindStringSubmatch(line)
		if want := fmt.Sprint(len(sections) + 1); m == nil || m[1] != want {
			t.Errorf("DESIGN.md heading %q: want it numbered `## %s.`", line, want)
			continue
		}
		sections[m[1]] = true
	}
	return sections
}

func TestDesignIsOneTopDownDocument(t *testing.T) {
	if n := strings.Count(readDoc(t, "DESIGN.md"), "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md is %d lines, cap %d: describe the system, let CHANGES.md narrate the change", n, designMaxLines)
	}
	if n := len(designSections(t)); n == 0 || n > 8 {
		t.Errorf("DESIGN.md has %d numbered sections, want 1..8", n)
	}
}

func TestDocsNameWhatExists(t *testing.T) {
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(readDoc(t, "Makefile"), -1) {
		targets[m[1]] = true
	}
	checkTargets := func(doc, list string) {
		for _, target := range strings.Fields(list) {
			if !targets[target] {
				t.Errorf("%s: `make %s` is not a Makefile target", doc, target)
			}
		}
	}
	for _, doc := range legibleDocs {
		text := readDoc(t, doc)
		for _, m := range docPath.FindAllStringSubmatch(text, -1) {
			if info, err := os.Stat(filepath.Join(m[1], m[2])); err != nil || !info.IsDir() {
				t.Errorf("%s names %s/%s, which is not a directory", doc, m[1], m[2])
			}
		}
		for _, m := range makeInline.FindAllStringSubmatch(text, -1) {
			checkTargets(doc, m[1])
		}
		fenced := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			} else if m := makeCommand.FindStringSubmatch(line); fenced && m != nil {
				checkTargets(doc, m[1])
			}
		}
	}
}

// TestDesignReferencesResolve: every `DESIGN §N` / `DESIGN.md §N` in Go
// sources, the Makefile and the legible docs — and every bare `§N` inside
// DESIGN.md itself — names a `## N.` heading. Paper sections are roman
// (§II-A) and so never look like one.
func TestDesignReferencesResolve(t *testing.T) {
	sections := designSections(t)
	check := func(path string, re *regexp.Regexp) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for n := 1; sc.Scan(); n++ {
			for _, m := range re.FindAllStringSubmatch(sc.Text(), -1) {
				if !sections[m[1]] {
					t.Errorf("%s:%d: §%s is not a section of DESIGN.md", path, n, m[1])
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	check("Makefile", designRef)
	for _, doc := range legibleDocs {
		check(doc, designRef)
	}
	check("DESIGN.md", bareRef)
	walkGoSources(t, func(path string) {
		if path != "docs_test.go" {
			check(path, designRef)
		}
	})
}

// walkGoSources visits every .go file of the tree outside the fenced
// benchmark/ and hidden directories.
func walkGoSources(t *testing.T, visit func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			visit(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDesignEngineTable: the rows of DESIGN §4's Engine table are exactly
// the fields of core.Engine, in order, and each row's flag is the one
// engineflags.Register binds to that field — a deleted knob cannot linger
// in, and a new one cannot be missing from, the table a newcomer reads.
func TestDesignEngineTable(t *testing.T) {
	flags := flag.NewFlagSet("docs", flag.ContinueOnError)
	ef := engineflags.Register(flags)
	flagOf := map[uintptr]string{}
	flags.VisitAll(func(fl *flag.Flag) {
		// A *Var flag's Value is the bound variable's own address.
		flagOf[reflect.ValueOf(fl.Value).Pointer()] = "-" + fl.Name
	})
	var want []string
	engine := reflect.ValueOf(&ef.Engine).Elem()
	for i := 0; i < engine.NumField(); i++ {
		want = append(want, engine.Type().Field(i).Name+" "+flagOf[engine.Field(i).Addr().Pointer()])
	}

	_, table, found := strings.Cut(readDoc(t, "DESIGN.md"), "\n| Field | Flag | Meaning (zero value) |\n|---|---|---|\n")
	if !found {
		t.Fatal("DESIGN.md has no `| Field | Flag | Meaning (zero value) |` table")
	}
	var got []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		m := engineRow.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("DESIGN.md Engine table row %q: want | `Field` | `-flag` | meaning |", line)
		}
		got = append(got, m[1]+" "+m[2])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DESIGN §4 Engine table rows:\n  %s\ncore.Engine fields and their flags:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestDocsFlagsAreRegistered: every -flag shown in a code span or fenced
// block of the legible docs is registered by some FlagSet — the commands',
// engineflags', the benchmark driver's, or a test binary's own (-update) —
// or is a go tool flag. A deleted flag cannot linger in the docs.
func TestDocsFlagsAreRegistered(t *testing.T) {
	known := map[string]bool{}
	for _, name := range goToolFlags {
		known[name] = true
	}
	collect := func(path string) {
		for _, m := range flagDecl.FindAllStringSubmatch(readDoc(t, path), -1) {
			known[m[1]] = true
		}
	}
	collect(filepath.Join("benchmark", "main.go")) // the rest of benchmark/ registers none
	walkGoSources(t, collect)

	for _, doc := range legibleDocs {
		codeLines(t, doc, func(line int, code string) {
			for _, m := range flagToken.FindAllStringSubmatch(code, -1) {
				if !known[m[1]] {
					t.Errorf("%s:%d: -%s is not a flag any command, test binary or the go tool registers", doc, line, m[1])
				}
			}
		})
	}
}

// codeLines calls visit with every code span and fenced-block line of doc.
func codeLines(t *testing.T, doc string, visit func(line int, code string)) {
	t.Helper()
	fenced := false
	for n, line := range strings.Split(readDoc(t, doc), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case fenced:
			visit(n+1, line)
		default:
			for _, span := range codeSpan.FindAllString(line, -1) {
				visit(n+1, strings.Trim(span, "`"))
			}
		}
	}
}

// routeMatches reports whether path is served by pattern: segment by
// segment, a `{name}` segment of the pattern standing for any one segment,
// and a path ending in "/" naming the subtree it is a prefix of.
func routeMatches(pattern, path string) bool {
	want, got := strings.Split(pattern, "/"), strings.Split(path, "/")
	subtree := strings.HasSuffix(path, "/")
	if subtree {
		got = got[:len(got)-1]
	}
	if len(got) > len(want) || !subtree && len(got) != len(want) {
		return false
	}
	for i, seg := range got {
		if seg != want[i] && !strings.HasPrefix(want[i], "{") {
			return false
		}
	}
	return true
}

// TestDocsRoutesAreRegistered: every HTTP path shown in a code span or
// fenced block of the legible docs — `/v1/…`, `/metrics`, `/healthz`,
// `/readyz`; a `[/optional]` tail is checked with and without — and every
// path prefix faultinject's rpcSite switches on is one some mux in the tree
// registers (subtree mounts like boomd's `/v1/fabric/` only forward, so
// they vouch for nothing). A renamed or deleted route cannot linger in the
// docs, and a chaos site cannot name a path nobody serves.
func TestDocsRoutesAreRegistered(t *testing.T) {
	var routes []string
	walkGoSources(t, func(path string) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, m := range routeDecl.FindAllStringSubmatch(readDoc(t, path), -1) {
			if !strings.HasSuffix(m[1], "/") {
				routes = append(routes, m[1])
			}
		}
	})
	if len(routes) == 0 {
		t.Fatal("found no registered routes: routeDecl no longer matches how the tree registers them")
	}
	served := func(path string) bool {
		for _, r := range routes {
			if routeMatches(r, path) {
				return true
			}
		}
		return false
	}
	for _, doc := range legibleDocs {
		codeLines(t, doc, func(line int, code string) {
			for _, m := range routeToken.FindAllStringSubmatch(code, -1) {
				path := m[1]
				variants := []string{path}
				if open := strings.Index(path, "["); open >= 0 {
					variants = []string{path[:open], strings.NewReplacer("[", "", "]", "").Replace(path)}
				}
				for _, v := range variants {
					v, _, _ = strings.Cut(v, "?")
					if !served(v) {
						t.Errorf("%s:%d: no handler is registered for %s", doc, line, v)
					}
				}
			}
		})
	}
	sites := sitePrefix.FindAllStringSubmatch(readDoc(t, filepath.Join("internal", "faultinject", "transport.go")), -1)
	if len(sites) == 0 {
		t.Fatal("found no path prefixes in faultinject.rpcSite")
	}
	for _, m := range sites {
		found := false
		for _, r := range routes {
			found = found || strings.HasPrefix(r, m[1])
		}
		if !found {
			t.Errorf("faultinject.rpcSite switches on %s, which no registered route starts with", m[1])
		}
	}
}

// pkgDecls is what go/parser finds declared in one package directory, test
// files included (the docs name tests): top-level names, and per type its
// methods and struct fields.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func parsePkgDecls(t *testing.T, dir string) pkgDecls {
	t.Helper()
	d := pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							d.top[id.Name] = true
						}
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									member(spec.Name.Name, id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return d
}

// TestDesignIdentifiersResolve: every `pkg.Ident` (or `pkg.Type.Member`,
// or `pkg.Prefix*`) in a code span or fenced block of DESIGN.md whose pkg is
// a directory under internal/ names a declaration go/parser finds there —
// a deleted function, type, method or field cannot linger in the design a
// newcomer reads. Exported names only: metric names and chaos sites
// (`artifact.fail_open`, `core.measure/<wl>`) share the shape in lower case.
func TestDesignIdentifiersResolve(t *testing.T) {
	pkgs := map[string]pkgDecls{}
	codeLines(t, "DESIGN.md", func(line int, code string) {
		for _, m := range qualIdent.FindAllStringSubmatch(code, -1) {
			pkg, name, glob, memb := m[1], m[2], m[3] != "", m[4]
			dir := filepath.Join("internal", pkg)
			if info, err := os.Stat(dir); err != nil || !info.IsDir() {
				continue // a variable, or a package that is not ours
			}
			d, ok := pkgs[pkg]
			if !ok {
				d = parsePkgDecls(t, dir)
				pkgs[pkg] = d
			}
			found := d.top[name]
			for decl := range d.top {
				found = found || glob && strings.HasPrefix(decl, name)
			}
			switch {
			case !found:
				t.Errorf("DESIGN.md:%d: %s.%s is not declared in %s", line, pkg, name, dir)
			case memb != "" && !glob && d.members[name] != nil && !d.members[name][memb]:
				t.Errorf("DESIGN.md:%d: %s.%s has no method or field %s", line, pkg, name, memb)
			}
		}
	})
}
