package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture tests follow the analysistest convention: a fixture line
// carrying a "// want `re`" comment expects exactly one diagnostic on
// that line per backtick-quoted regexp, and every diagnostic must be
// wanted. Fixtures live under testdata/src/<analyzer>/ — outside the
// build (the toolchain ignores testdata), but loaded through the same
// Loader lsmvet uses, so directive suppression, type resolution, and
// position accounting are tested end to end.

// One shared loader across the test run: the standard library is
// source-checked once, not once per fixture.
var (
	loaderOnce sync.Once
	sharedL    *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedL, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return sharedL
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want ((?:`[^`]*` ?)+)")

// loadExpectations scans a fixture directory's sources for want
// comments, keyed by "file.go:line".
func loadExpectations(t *testing.T, dir string) map[string][]*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]*expectation{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), i+1)
			for _, quoted := range regexp.MustCompile("`[^`]*`").FindAllString(m[1], -1) {
				re, err := regexp.Compile(strings.Trim(quoted, "`"))
				if err != nil {
					t.Fatalf("%s: bad want regexp %s: %v", key, quoted, err)
				}
				wants[key] = append(wants[key], &expectation{re: re})
			}
		}
	}
	return wants
}

// runFixture checks the analyzers' diagnostics over one fixture package
// against its want annotations, both directions.
func runFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l, []*Package{pkg}, analyzers)
	wants := loadExpectations(t, dir)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		found := false
		for _, exp := range wants[key] {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, exp := range wants[key] {
			if !exp.matched {
				t.Errorf("%s: want diagnostic matching %q, got none", key, exp.re)
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	// The fixture package is outside DeterministicPackages by
	// construction; widen the scope to it.
	runFixture(t, "testdata/src/determinism", NewDeterminism(func(string) bool { return true }))
}

func TestHotpathFixture(t *testing.T) {
	runFixture(t, "testdata/src/hotpath", NewHotpath())
}

func TestEntryRetainFixture(t *testing.T) {
	runFixture(t, "testdata/src/entryretain", NewEntryRetain())
}

func TestSeedlaneFixture(t *testing.T) {
	runFixture(t, "testdata/src/seedlane", NewSeedlane())
}

func TestUnreachedFixture(t *testing.T) {
	const fixture = "repro/internal/lint/testdata/src/unreached"
	only := func(p string) bool { return p == fixture }
	runFixture(t, "testdata/src/unreached", NewUnreached(only, only))
}

// TestUnreachedPartialRun: a run that loaded one package, not the
// module's programs, cannot tell dead code from code it did not load,
// so the only finding left is the reasonless keep.
func TestUnreachedPartialRun(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir("testdata/src/unreached")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l, []*Package{pkg}, []*Analyzer{NewUnreached(nil, nil)})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "needs a reason") {
		t.Fatalf("got %v, want the one reasonless keep", diags)
	}
}

// TestLoadHonorsBuildConstraints: a file whose //go:build line leaves
// it out of this system's build is not loaded, so a symbol declared
// once a system (a Linux file and its fallback) is no redeclaration.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	pkg, err := testLoader(t).LoadDir("testdata/src/buildtags")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want the one that builds", len(pkg.Files))
	}
}

// TestUnknownDirective pins the driver behavior that a typoed //lsm:
// verb is itself a finding rather than a silent no-op suppression, and
// that the finding and `lsmvet -list` name every verb, from one list.
func TestUnknownDirective(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir("testdata/src/directive")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l, []*Package{pkg}, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "directive" || !strings.Contains(diags[0].Message, "unknown //lsm: directive") {
		t.Fatalf("unexpected diagnostic: %v", diags[0])
	}
	if verbs := Verbs(); len(verbs) != len(knownVerbs) || !sort.StringsAreSorted(verbs) {
		t.Fatalf("Verbs() = %v, want the %d known verbs sorted", verbs, len(knownVerbs))
	}
	for verb := range knownVerbs {
		if !strings.Contains(diags[0].Message, verb) || !strings.Contains(VerbHelp(), directivePrefix+verb) {
			t.Errorf("%s missing from the finding %q or from lsmvet -list's %q", verb, diags[0].Message, VerbHelp())
		}
	}
}

// TestRepoClean is the check CI's lint job enforces: the default suite
// over the whole module must be finding-free.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(l, pkgs, DefaultAnalyzers()) {
		t.Errorf("%s", d)
	}
}
