package service

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gigaflow"
)

var update = flag.Bool("update", false, "rewrite README.md's generated reference sections (make docs)")

// docs are the living documents whose names TestDocs checks; CHANGES.md
// and ROADMAP.md are history and are not read. Paths are from the
// repository root.
var docs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// TestDocs keeps every code fact the documents restate to one source.
// README.md's reference sections — the metrics, the introspection
// endpoints, Config and each command's flags — are generated from the
// code, like TestGolden's files: a section that differs from what the
// code declares fails here, and -update (make docs) rewrites it. Every
// gigaflow_… metric, Config path and command -flag any of the documents
// names must be one of the same sets, and every Service.X, Batch.X,
// service.X and VSwitch.X one a declaration of non-test code.
func TestDocs(t *testing.T) {
	metrics := liveMetrics(t)
	config := configFields(t)
	flags := commandFlags(t)
	decls := map[string]map[string]bool{"service": goNames(t, "."), "gigaflow": goNames(t, "..")}
	bench, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{
		"metrics":   renderMetrics(metrics),
		"endpoints": renderEndpoints(),
		"config":    renderConfig(config),
		"flags":     renderFlags(flags),
	}
	readme := filepath.Join("..", "README.md")
	old, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	gen := string(old)
	for name, body := range sections {
		if gen, err = replaceSection(gen, name, body); err != nil {
			t.Fatal(err)
		}
	}
	switch {
	case *update && gen != string(old):
		if err := os.WriteFile(readme, []byte(gen), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote README.md's generated sections")
	case !*update && gen != string(old):
		for name := range sections {
			if section(string(old), name) != section(gen, name) {
				t.Errorf("README.md: the generated %s section is stale; run make docs", name)
			}
		}
	}

	paths := map[string]bool{}
	for _, f := range config {
		paths[f.path] = true
	}
	for _, doc := range docs {
		b, err := os.ReadFile(filepath.Join("..", doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, at := range metricNames(text) {
			if !metrics.has(at.name) {
				t.Errorf("%s:%d: `%s`: no service registers this metric", doc, at.line, at.name)
			}
		}
		for _, at := range configPaths(text) {
			if !paths[at.name] {
				t.Errorf("%s:%d: `Config.%s`: service.Config has no such field", doc, at.line, at.name)
			}
		}
		for _, at := range commandLines(text, flags) {
			if _, ok := flags[at.tool][at.name]; !ok && at.name != "h" && at.name != "help" {
				t.Errorf("%s:%d: `%s -%s`: cmd/%s declares no such flag", doc, at.line, at.tool, at.name, at.tool)
			}
		}
		for _, at := range apiNames(text) {
			pkg, name := "service", at.name
			switch typ, member, _ := strings.Cut(at.name, "."); typ {
			case "VSwitch":
				pkg = "gigaflow"
			case "service":
				// service.X is any name the package declares; BENCHMARK.json's
				// service.submit_ns and kin are metrics.
				if bytes.Contains(bench, []byte(strconv.Quote(at.name))) {
					continue
				}
				name = member
			}
			if !decls[pkg][name] {
				t.Errorf("%s:%d: `%s`: non-test %s package code declares no such name", doc, at.line, at.name, pkg)
			}
		}
	}
	// The Go comments of this package and the root package name metrics
	// too; test files' included.
	for _, dir := range []string{".", ".."} {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(b), "\n") {
				c := strings.Index(line, "//")
				if c < 0 {
					continue
				}
				for _, at := range metricNames(line[c:]) {
					if !metrics.has(at.name) {
						t.Errorf("%s:%d: `%s`: no service registers this metric", file, i+1, at.name)
					}
				}
			}
		}
	}
}

// A generated section is the text between its two markers.
func markers(name string) (begin, end string) {
	return "<!-- BEGIN " + name + ": generated by `make docs` from the code; do not edit -->\n", "<!-- END " + name + " -->"
}

func section(text, name string) string {
	begin, end := markers(name)
	i, j := strings.Index(text, begin), strings.Index(text, end)
	if i < 0 || j < i {
		return ""
	}
	return text[i+len(begin) : j]
}

func replaceSection(text, name, body string) (string, error) {
	begin, end := markers(name)
	i, j := strings.Index(text, begin), strings.Index(text, end)
	if i < 0 || j < i {
		return "", fmt.Errorf("README.md has no %q … %q markers", strings.TrimSpace(begin), end)
	}
	return text[:i+len(begin)] + body + text[j:], nil
}

// mdCell escapes s for a Markdown table cell.
func mdCell(s string) string { return strings.ReplaceAll(s, "|", `\|`) }

// metric is one family of the live registry.
type metric struct{ name, kind, help, labels string }

type metricSet map[string]metric

// has reports whether name is a family, or a histogram family's _count,
// _sum or _bucket series.
func (m metricSet) has(name string) bool {
	if _, ok := m[name]; ok {
		return true
	}
	for _, suffix := range []string{"_count", "_sum", "_bucket"} {
		if f, ok := m[strings.TrimSuffix(name, suffix)]; ok && f.kind == "histogram" && strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// liveMetrics is the union of what three services register once they
// have carried traffic and been collected: Gigaflow with the Microflow
// tier and conntrack, Gigaflow with the upcall offload, and Megaflow.
// A family two of them register must agree on kind, labels and help.
func liveMetrics(t *testing.T) metricSet {
	set := metricSet{}
	services := []struct {
		p   *gigaflow.Pipeline
		cfg Config
	}{
		{statefulPipeline(), Config{Workers: 2, MicroflowCapacity: 64, Conntrack: ConntrackConfig{Enable: true}}},
		{buildPipeline(), Config{Upcall: UpcallConfig{Workers: 1}}},
		{buildPipeline(), Config{MegaflowCapacity: 32768, MicroflowCapacity: 64}},
	}
	ctx := context.Background()
	series := regexp.MustCompile(`^([a-z0-9_]+)(?:\{(.*)\})? `)
	label := regexp.MustCompile(`([a-zA-Z_]+)="(?:[^"\\]|\\.)*"`)
	for _, sv := range services {
		s := start(t, sv.p, sv.cfg)
		for h := uint64(0); h < 4; h++ {
			if _, err := s.SubmitFrame(ctx, 0, frameOf(t, key(h, 80), 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Collect(ctx); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Registry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		found := map[string]*metric{}
		var cur *metric
		for _, line := range strings.Split(buf.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "# HELP "):
				name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
				cur = &metric{name: name, help: help}
				found[name] = cur
			case strings.HasPrefix(line, "# TYPE "):
				cur.kind = line[strings.LastIndex(line, " ")+1:]
			default:
				m := series.FindStringSubmatch(line)
				if m == nil || cur == nil || cur.labels != "" {
					continue
				}
				var keys []string
				for _, l := range label.FindAllStringSubmatch(m[2], -1) {
					if l[1] != "le" {
						keys = append(keys, l[1])
					}
				}
				cur.labels = strings.Join(keys, ", ")
			}
		}
		for name, f := range found {
			if prev, ok := set[name]; ok && prev != *f {
				t.Errorf("metric %s registered two ways: %+v and %+v", name, prev, *f)
			}
			set[name] = *f
		}
	}
	return set
}

func renderMetrics(set metricSet) string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("| metric | kind | labels | help |\n|---|---|---|---|\n")
	for _, name := range names {
		f := set[name]
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", name, f.kind, f.labels, mdCell(f.help))
	}
	return b.String()
}

func renderEndpoints() string {
	var b strings.Builder
	b.WriteString("| path | serves |\n|---|---|\n")
	for _, e := range endpoints {
		fmt.Fprintf(&b, "| `%s` | %s |\n", e.path, mdCell(e.about))
	}
	return b.String()
}

// configField is one field of Config or of one of its sections, by its
// path from Config, with its type and doc comment.
type configField struct{ path, typ, doc string }

// configFields reads Config from this package's declarations: a field
// whose type is a struct this package declares (a section) is followed
// by that struct's fields.
func configFields(t *testing.T) []configField {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]*ast.StructType{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					structs[ts.Name.Name] = st
				}
			}
			return true
		})
	}
	var out []configField
	var walk func(prefix string, st *ast.StructType)
	walk = func(prefix string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			for _, n := range f.Names {
				typ := types.ExprString(f.Type)
				out = append(out, configField{prefix + n.Name, typ, strings.Join(strings.Fields(f.Doc.Text()), " ")})
				if sub, ok := structs[typ]; ok {
					walk(prefix+n.Name+".", sub)
				}
			}
		}
	}
	cfg, ok := structs["Config"]
	if !ok {
		t.Fatal("service declares no Config")
	}
	walk("", cfg)
	return out
}

func renderConfig(fields []configField) string {
	var b strings.Builder
	b.WriteString("| field | type | meaning |\n|---|---|---|\n")
	for _, f := range fields {
		fmt.Fprintf(&b, "| `%s` | `%s` | %s |\n", f.path, f.typ, mdCell(f.doc))
	}
	return b.String()
}

// cmdFlag is one flag a command declares through package flag.
type cmdFlag struct{ def, usage string }

// commandFlags reads every command under cmd/ for its flag.X and
// flag.XVar calls: tool → flag name → declaration.
func commandFlags(t *testing.T) map[string]map[string]cmdFlag {
	dirs, err := filepath.Glob(filepath.Join("..", "cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]cmdFlag{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		tool := filepath.Base(dir)
		out[tool] = map[string]cmdFlag{}
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
					return true
				}
				args := call.Args
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					args = args[1:]
				}
				if len(args) != 3 {
					return true
				}
				name, err1 := strconv.Unquote(types.ExprString(args[0]))
				usage, err2 := strconv.Unquote(types.ExprString(args[2]))
				if err1 != nil || err2 != nil {
					t.Errorf("%s: a flag.%s whose name or usage is not a literal", fset.Position(call.Pos()), sel.Sel.Name)
					return true
				}
				def := types.ExprString(args[1])
				if s, err := strconv.Unquote(def); err == nil {
					def = s
				}
				out[tool][name] = cmdFlag{def, usage}
				return true
			})
		}
	}
	return out
}

func renderFlags(flags map[string]map[string]cmdFlag) string {
	tools := make([]string, 0, len(flags))
	for tool := range flags {
		tools = append(tools, tool)
	}
	sort.Strings(tools)
	var b strings.Builder
	for _, tool := range tools {
		names := make([]string, 0, len(flags[tool]))
		for name := range flags[tool] {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "\n`%s`:\n\n| flag | default | usage |\n|---|---|---|\n", tool)
		for _, name := range names {
			f := flags[tool][name]
			def := f.def
			if def != "" {
				def = "`" + def + "`"
			}
			fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", name, def, mdCell(f.usage))
		}
	}
	return b.String() + "\n"
}

// mention is a name a document uses, at a line.
type mention struct {
	tool, name string
	line       int
}

// metricNames finds gigaflow_… names; a name that ends in _ is a family
// prefix (gigaflow_ct_*) and a .go suffix makes a file name: neither
// names one metric.
func metricNames(text string) []mention {
	re := regexp.MustCompile(`gigaflow_[a-z0-9_]+(\.go)?`)
	var out []mention
	for i, line := range strings.Split(text, "\n") {
		for _, m := range re.FindAllString(line, -1) {
			if !strings.HasSuffix(m, "_") && !strings.HasSuffix(m, ".go") {
				out = append(out, mention{name: m, line: i + 1})
			}
		}
	}
	return out
}

// goNames reads the declarations of the non-test Go files in dir: every
// method and struct field under its type's name and its own (T.X) and
// under its own alone, and every other top-level name.
func goNames(t *testing.T, dir string) map[string]bool {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	member := func(typ, name string) { names[typ+"."+name], names[name] = true, true }
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				member(types.ExprString(recv), d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									member(spec.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// apiNames finds the Service.X, Batch.X, service.X and VSwitch.X names in
// inline code; service.go is a file.
func apiNames(text string) []mention {
	code := regexp.MustCompile("`[^`]+`")
	name := regexp.MustCompile(`(?:^|[^A-Za-z0-9_])((?:[Ss]ervice|Batch|VSwitch)\.[A-Za-z_][A-Za-z0-9_]*)`)
	var out []mention
	for i, line := range strings.Split(text, "\n") {
		for _, span := range code.FindAllString(line, -1) {
			for _, m := range name.FindAllStringSubmatch(strings.ReplaceAll(span, "service.go", ""), -1) {
				out = append(out, mention{name: m[1], line: i + 1})
			}
		}
	}
	return out
}

// configPaths finds the words of inline code that are a Config path:
// Config.… or a path from one of its sections. Expiry was a section until
// its one remaining field became Config.MaxIdle, so a path through it is
// stale too. The path is returned from Config, without the Config.
func configPaths(text string) []mention {
	code := regexp.MustCompile("`[^`]+`")
	path := regexp.MustCompile(`^(Config|Expiry|Upcall|Latency|Conntrack)(\.[A-Z][A-Za-z0-9]*)+$`)
	var out []mention
	for i, line := range strings.Split(text, "\n") {
		for _, span := range code.FindAllString(line, -1) {
			for _, w := range strings.Fields(strings.Trim(span, "`")) {
				w = strings.TrimRight(w, ",.;:)")
				if path.MatchString(w) {
					out = append(out, mention{name: strings.TrimPrefix(w, "Config."), line: i + 1})
				}
			}
		}
	}
	return out
}

// commandLines finds the -flags given to the repository's commands. A
// command line is inline code, or a line of a fenced block, that names
// one of them (bare, or by its cmd/<tool> path); every -flag after the
// name, up to a pipe, a list separator, a redirection or a comment,
// belongs to it.
func commandLines(text string, tools map[string]map[string]cmdFlag) []mention {
	code := regexp.MustCompile("`[^`]+`")
	flagWord := regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)`)
	var out []mention
	scan := func(line string, n int) {
		line, _, _ = strings.Cut(line, "#")
		cur := ""
		for _, w := range strings.Fields(line) {
			switch w {
			case "|", "||", "&&", ";", ">", "2>":
				cur = ""
				continue
			}
			name := strings.TrimPrefix(strings.TrimPrefix(w, "./"), "cmd/")
			if _, ok := tools[name]; ok && (name == w || strings.Contains(w, "cmd/")) {
				cur = name
				continue
			}
			if m := flagWord.FindStringSubmatch(w); cur != "" && m != nil {
				out = append(out, mention{tool: cur, name: m[1], line: n})
			}
		}
	}
	fence := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimLeft(line, " \t"), "```") {
			fence = !fence
			continue
		}
		if fence {
			scan(line, i+1)
			continue
		}
		for _, span := range code.FindAllString(line, -1) {
			scan(strings.Trim(span, "`"), i+1)
		}
	}
	return out
}
