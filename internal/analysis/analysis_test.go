package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads package directories from the fixture module under
// testdata/src.
func loadFixture(t *testing.T, dirs ...string) *Program {
	t.Helper()
	prog, err := LoadDirs(filepath.Join("testdata", "src"), dirs...)
	if err != nil {
		t.Fatalf("loading fixture %v: %v", dirs, err)
	}
	return prog
}

var wantRE = regexp.MustCompile(`want "([^"]*)"`)

// collectWants extracts `// want "substr"` expectations from fixture
// comments, keyed by file:line. A finding at that position must contain
// the substring in its message; each expectation matches one finding.
func collectWants(prog *Program) map[string][]string {
	wants := make(map[string][]string)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						pos := prog.Fset.Position(c.Slash)
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], m[1])
					}
				}
			}
		}
	}
	return wants
}

// checkGolden diffs the analyzers' findings against the fixture's want
// comments: every finding must be expected, every expectation must fire.
func checkGolden(t *testing.T, prog *Program, analyzers []*Analyzer) {
	t.Helper()
	wants := collectWants(prog)
	for _, f := range Run(prog, analyzers) {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := -1
		for i, substr := range wants[key] {
			if strings.Contains(f.Message, substr) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, substrs := range wants {
		for _, substr := range substrs {
			t.Errorf("%s: expected finding containing %q, got none", key, substr)
		}
	}
}

func TestHotAllocFixture(t *testing.T) {
	checkGolden(t, loadFixture(t, "hotalloc"), []*Analyzer{HotAlloc})
}

func TestAtomicMixFixture(t *testing.T) {
	// Two packages loaded as one program: the atomic update site lives in
	// fixture/atomicmix, one of the plain accesses in fixture/atomicmix/client.
	checkGolden(t, loadFixture(t, "atomicmix", filepath.Join("atomicmix", "client")), []*Analyzer{AtomicMix})
}

func TestLockDisciplineFixture(t *testing.T) {
	checkGolden(t, loadFixture(t, "lockdiscipline"), []*Analyzer{LockDiscipline})
}

func TestDetRandFixture(t *testing.T) {
	// The scoped package's import path contains "internal/sim"; its
	// sibling "outside" matches no scope fragment and must stay silent.
	checkGolden(t, loadFixture(t,
		filepath.Join("detrand", "internal", "sim"),
		filepath.Join("detrand", "outside")), []*Analyzer{DetRand})
}

// TestDeadCodeFixture loads the fixture's three packages, which are its
// whole program: lib declares a name per case, user (with a test) and the
// main package tool reference them.
func TestDeadCodeFixture(t *testing.T) {
	prog := loadFixture(t,
		filepath.Join("deadcode", "internal", "lib"),
		filepath.Join("deadcode", "internal", "user"),
		filepath.Join("deadcode", "cmd", "tool"))
	prog.whole = true
	checkGolden(t, prog, []*Analyzer{DeadCode})
}

// TestDeadCodeSilentOnPartialProgram: a pattern-limited load has not seen
// the packages that reference a name, so deadcode reports nothing — not
// for the fixture's lib alone, whose users are unloaded, nor for one
// module package.
func TestDeadCodeSilentOnPartialProgram(t *testing.T) {
	lib := loadFixture(t, filepath.Join("deadcode", "internal", "lib"))
	flow, err := LoadDirs(filepath.Join("..", ".."), filepath.Join("internal", "flow"))
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []*Program{lib, flow} {
		if findings := Run(prog, []*Analyzer{DeadCode}); len(findings) != 0 {
			t.Errorf("%s: %d finding(s) on a partial program:\n%s", prog.Pkgs[0].Path, len(findings), findingsText(findings))
		}
	}
}

func TestSuppressFixture(t *testing.T) {
	checkGolden(t, loadFixture(t, "suppress"), []*Analyzer{HotAlloc})
}

// TestMalformedIgnoreDirective pins down reason-less directives directly:
// appending a want comment to the directive would become its reason and
// make it well-formed, so this fixture cannot use golden comments.
func TestMalformedIgnoreDirective(t *testing.T) {
	prog := loadFixture(t, "badignore")
	findings := Run(prog, []*Analyzer{HotAlloc})
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (malformed directive + unwaived fmt call):\n%s",
			len(findings), findingsText(findings))
	}
	if findings[0].Analyzer != "gflint" || !strings.Contains(findings[0].Message, "malformed") {
		t.Errorf("finding 0 = %s, want a gflint malformed-directive finding", findings[0])
	}
	if findings[1].Analyzer != "hotalloc" || !strings.Contains(findings[1].Message, "fmt.Println") {
		t.Errorf("finding 1 = %s, want the unwaived hotalloc finding", findings[1])
	}
}

// TestModuleClean is `make lint` as a test: the whole module loads and
// every analyzer runs with zero findings, and the module carries no
// //gflint:ignore — not in non-test code, and not in a _test.go file
// either, which gflint never loads, so an ignore there would waive
// nothing. The testdata fixtures, which exercise the directive, are
// exempt.
func TestModuleClean(t *testing.T) {
	root := filepath.Join("..", "..")
	prog, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(prog.Pkgs) == 0 || !prog.whole {
		t.Fatal("module loaded zero packages, or not as the whole module")
	}
	if findings := Run(prog, Analyzers()); len(findings) > 0 {
		t.Errorf("module has %d finding(s):\n%s", len(findings), findingsText(findings))
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				if hasDirective(group, ignoreDirective) {
					t.Errorf("%s: //gflint:ignore in non-test module code; fix the finding instead",
						prog.Fset.Position(group.Pos()))
				}
			}
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			if hasDirective(group, ignoreDirective) {
				t.Errorf("%s: //gflint:ignore in a test file, which gflint never loads: it waives nothing", fset.Position(group.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHotCallFixture(t *testing.T) {
	checkGolden(t, loadFixture(t, "hotcall"), []*Analyzer{HotCall})
}

func TestGoroLeakFixture(t *testing.T) {
	checkGolden(t, loadFixture(t, "goroleak"), []*Analyzer{GoroLeak})
}

// TestHotCertReport pins HOTPATH.md: the report must be byte-identical
// across two independent loads (no map-order or position leakage) and
// must match the checked-in file `make lint` regenerates.
func TestHotCertReport(t *testing.T) {
	load := func() string {
		prog, err := LoadModule(filepath.Join("..", ".."))
		if err != nil {
			t.Fatalf("loading module: %v", err)
		}
		return HotpathReport(prog)
	}
	first, second := load(), load()
	if first != second {
		t.Fatal("HotpathReport is not deterministic across loads")
	}
	if strings.Contains(first, "FAILED") {
		t.Error("HOTPATH.md reports uncertified roots; run gflint for the findings")
	}
	disk, err := os.ReadFile(filepath.Join("..", "..", "HOTPATH.md"))
	if err != nil {
		t.Fatalf("reading checked-in HOTPATH.md: %v", err)
	}
	if string(disk) != first {
		t.Error("checked-in HOTPATH.md is stale; run `make lint` to regenerate it")
	}
}

// BenchmarkGflintModule times one full lint pass: a single load and
// type-check shared by every analyzer, then the whole suite plus the
// certification report. This is the cost `make lint` pays.
func BenchmarkGflintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := LoadModule(filepath.Join("..", ".."))
		if err != nil {
			b.Fatalf("loading module: %v", err)
		}
		if findings := Run(prog, Analyzers()); len(findings) != 0 {
			b.Fatalf("module has %d finding(s); first: %s", len(findings), findings[0])
		}
		_ = HotpathReport(prog)
	}
}

func findingsText(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f.String())
	}
	return b.String()
}
