package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// expectation is one `// want "regex"` annotation in a fixture file.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// NewFixtureLoader returns a loader that resolves bare import paths from
// the given GOPATH-src-style roots (analysistest layout).
func NewFixtureLoader(srcRoots ...string) *Loader {
	l := &Loader{SrcRoots: srcRoots}
	l.init()
	return l
}

// RunFixture loads the fixture package at srcRoot/<path> (analysistest
// layout: the directory name is the import path) and checks the
// analyzers' post-suppression diagnostics against the `// want "regex"`
// comments in its sources: every diagnostic must match a want on its
// line, and every want must be matched. It returns the list of failures,
// empty on success — callers in tests report each entry with t.Errorf.
func RunFixture(srcRoot, path string, analyzers ...*Analyzer) ([]string, error) {
	loader := NewFixtureLoader(srcRoot)
	pkg, err := loader.Load(path)
	if err != nil {
		return nil, err
	}
	if len(pkg.TypeErrors) > 0 {
		return nil, fmt.Errorf("fixture %s has type errors: %v", path, pkg.TypeErrors)
	}
	diags, err := Run(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	wants, err := collectWants(pkg.Dir)
	if err != nil {
		return nil, err
	}

	var failures []string
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if w.matched {
				continue // each want accounts for exactly one diagnostic
			}
			if w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			failures = append(failures, fmt.Sprintf("unexpected diagnostic %s", d))
		}
	}
	for _, w := range wants {
		if !w.matched {
			failures = append(failures, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw))
		}
	}
	return failures, nil
}

// collectWants scans the fixture directory's .go files for want comments.
func collectWants(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRe.FindAllStringSubmatch(m[1], -1)
			if len(args) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment %q", e.Name(), i+1, line)
			}
			for _, a := range args {
				re, err := regexp.Compile(a[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp: %v", e.Name(), i+1, err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: i + 1, re: re, raw: a[1]})
			}
		}
	}
	return wants, nil
}
