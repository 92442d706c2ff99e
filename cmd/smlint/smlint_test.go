package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runOne applies a single analyzer to the fixture package in
// testdata/src/<dir> and returns its diagnostics.
func runOne(t *testing.T, a *Analyzer, dir string) []Diagnostic {
	t.Helper()
	// A module path no fixture import can match: every import resolves
	// through the stdlib source importer.
	l := newLoader("fixture.invalid/mod", filepath.Join("testdata", "src"))
	pkg, files, info, err := l.load("fixture.invalid/mod/"+dir, filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var diags []Diagnostic
	pass := &Pass{Fset: l.fset, Files: files, Pkg: pkg, Info: info, analyzer: a.Name, diags: &diags}
	a.Run(pass)
	return diags
}

// wantRx extracts the quoted or backticked regexes from a // want
// comment's payload.
var wantRx = regexp.MustCompile("`([^`]+)`|\"([^\"]+)\"")

// expectations maps line number -> unmatched regexes for one file.
func expectations(t *testing.T, path string) map[int][]*regexp.Regexp {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int][]*regexp.Regexp{}
	for i, line := range strings.Split(string(data), "\n") {
		_, payload, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		for _, m := range wantRx.FindAllStringSubmatch(payload, -1) {
			src := m[1]
			if src == "" {
				src = regexp.QuoteMeta(m[2])
			}
			rx, err := regexp.Compile(src)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, src, err)
			}
			out[i+1] = append(out[i+1], rx)
		}
	}
	return out
}

func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
		// wantFindings asserts the fixture actually fails the analyzer,
		// proving the check is live (false for allowlist fixtures).
		wantFindings bool
	}{
		{floatcmpAnalyzer, "floatcmp", true},
		{floatcmpAnalyzer, "floatcmp_allow", false},
		{globalrandAnalyzer, "globalrand", true},
		{goroutinecaptureAnalyzer, "goroutinecapture", true},
		{errdropAnalyzer, "errdrop", true},
		{synccloseAnalyzer, "syncclose", true},
		{enginelayeringAnalyzer, "enginelayering/internal/engine/badengine", true},
		{timenowAnalyzer, "timenow", true},
		{ctxpollAnalyzer, "ctxpoll/internal/exec", true},
		{cursorleakAnalyzer, "cursorleak", true},
		{refbalanceAnalyzer, "refbalance", true},
		{refbalanceAnalyzer, "refbalance/internal/engine/rowstore", true},
		{refbalanceAnalyzer, "refbalance/internal/engine/colstore", true},
		{ctxflowAnalyzer, "ctxflow", true},
		{hotallocAnalyzer, "hotalloc/internal/stats", true},
		{hotallocAnalyzer, "hotalloc/internal/engine/fake", true},
		{hotallocAnalyzer, "hotalloc/internal/colcodec", true},
		{hotallocAnalyzer, "hotalloc/internal/incr", true},
		{hotallocAnalyzer, "hotalloc/internal/threeline", true},
		{hotallocAnalyzer, "hotalloc/internal/engine/colstore", true},
		{hotallocAnalyzer, "hotalloc/internal/exec", true},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name+"/"+tc.dir, func(t *testing.T) {
			diags := runOne(t, tc.analyzer, tc.dir)
			if tc.wantFindings && len(diags) == 0 {
				t.Fatalf("fixture %s produced no findings; analyzer appears dead", tc.dir)
			}

			// Collect // want expectations from every fixture file.
			want := map[string]map[int][]*regexp.Regexp{}
			entries, err := os.ReadDir(filepath.Join("testdata", "src", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".go") {
					path := filepath.Join("testdata", "src", tc.dir, e.Name())
					want[filepath.Base(path)] = expectations(t, path)
				}
			}

			for _, d := range diags {
				file := filepath.Base(d.Pos.Filename)
				exps := want[file][d.Pos.Line]
				matched := -1
				for i, rx := range exps {
					if rx.MatchString(d.Message) {
						matched = i
						break
					}
				}
				if matched < 0 {
					t.Errorf("unexpected diagnostic %s", d)
					continue
				}
				want[file][d.Pos.Line] = append(exps[:matched], exps[matched+1:]...)
			}
			for file, lines := range want {
				for line, exps := range lines {
					for _, rx := range exps {
						t.Errorf("%s:%d: missing diagnostic matching %q", file, line, rx)
					}
				}
			}
		})
	}
}

// TestSuppressions pins //smlint:ignore handling end to end through
// runAnalyzers: a well-formed directive (line-above or same-line)
// silences its finding, and malformed directives — missing reason,
// unknown analyzer — are findings themselves and suppress nothing.
func TestSuppressions(t *testing.T) {
	l := newLoader("fixture.invalid/mod", filepath.Join("testdata", "src"))
	pkg, files, info, err := l.load("fixture.invalid/mod/suppress", filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatalf("loading suppress fixture: %v", err)
	}
	diags := runAnalyzers(l.fset, files, pkg, info)

	var ignores, floats []Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "ignore":
			ignores = append(ignores, d)
		case "floatcmp":
			floats = append(floats, d)
		default:
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	// The two well-formed suppressions silence their findings; the two
	// malformed ones leave theirs standing.
	if len(floats) != 2 {
		t.Errorf("got %d floatcmp findings, want 2 (malformed directives must not suppress):", len(floats))
		for _, d := range floats {
			t.Logf("  %s", d)
		}
	}
	if len(ignores) != 2 {
		t.Fatalf("got %d ignore findings, want 2 (missing reason + unknown analyzer)", len(ignores))
	}
	wantMsgs := []string{"needs a reason", "unknown analyzer"}
	for i, wantSub := range wantMsgs {
		if !strings.Contains(ignores[i].Message, wantSub) {
			t.Errorf("ignore finding %d = %q, want substring %q", i, ignores[i].Message, wantSub)
		}
	}
}

// TestSelfLint holds the analyzer, fault-injection and execution layers
// to smlint's own standard: every analyzer over cmd/smlint,
// internal/fault and internal/exec must report nothing.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks several packages")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	_, modRoot, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(modRoot)
	diags, err := run([]string{"./cmd/smlint", "./internal/fault", "./internal/exec/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("self-lint: %s", d)
	}
}

// TestRepoIsClean runs every analyzer over the whole module, mirroring
// `go run ./cmd/smlint ./...` in scripts/check.sh: the tree must stay
// violation-free.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	_, modRoot, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(modRoot)
	diags, err := run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDiagnosticOrdering pins the report order: findings sort by file,
// line, column so output is stable across runs.
func TestDiagnosticOrdering(t *testing.T) {
	diags := runOne(t, floatcmpAnalyzer, "floatcmp")
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", fmt.Sprint(a), fmt.Sprint(b))
		}
	}
}
