package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// chdir moves into dir for one test, restoring the working directory on
// cleanup (run() lints the module containing ".").
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// TestSmokeTinyModule runs the multichecker end to end over the
// self-contained module in testdata: findings gate the exit code, -only
// narrows the suite, and package arguments select paths.
func TestSmokeTinyModule(t *testing.T) {
	chdir(t, filepath.Join("testdata", "tinymod"))

	if got := run([]string{"./..."}); got != 1 {
		t.Errorf("run(./...) = %d, want 1 (the module has seeded findings)", got)
	}
	if got := run([]string{"./clean"}); got != 0 {
		t.Errorf("run(./clean) = %d, want 0", got)
	}
	if got := run([]string{"-only", "unitsafety", "./..."}); got != 0 {
		t.Errorf("run(-only unitsafety ./...) = %d, want 0 (seeded findings are determinism/floateq)", got)
	}
	if got := run([]string{"-only", "determinism,floateq", "./core"}); got != 1 {
		t.Errorf("run(-only determinism,floateq ./core) = %d, want 1", got)
	}
	if got := run([]string{"-only", "snapstate,hotalloc", "./core"}); got != 1 {
		t.Errorf("run(-only snapstate,hotalloc ./core) = %d, want 1 (Counter.b and Hot's make are seeded)", got)
	}
	if got := run([]string{"-only", "durabilityerr,applypath", "./serve"}); got != 1 {
		t.Errorf("run(-only durabilityerr,applypath ./serve) = %d, want 1 (dropped Close and out-of-path Bump are seeded)", got)
	}
}

// TestJSONReport pins the -json contract: a machine-readable envelope on
// stdout, the full analyzer set listed, every seeded analyzer represented
// with positioned diagnostics, and a clean run serializing diagnostics as
// [] rather than null.
func TestJSONReport(t *testing.T) {
	chdir(t, filepath.Join("testdata", "tinymod"))

	var out, errBuf bytes.Buffer
	if got := runTo(&out, &errBuf, []string{"-json", "./..."}); got != 1 {
		t.Fatalf("runTo(-json ./...) = %d, want 1; stderr: %s", got, errBuf.String())
	}
	var rep lint.JSONReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Analyzers) != 9 {
		t.Errorf("report lists %d analyzers, want 9: %v", len(rep.Analyzers), rep.Analyzers)
	}
	counts := map[string]int{}
	for _, d := range rep.Diagnostics {
		counts[d.Analyzer]++
		if d.File == "" || d.Line == 0 {
			t.Errorf("diagnostic missing position: %+v", d)
		}
	}
	for _, name := range []string{"determinism", "floateq", "snapstate", "applypath", "durabilityerr", "hotalloc"} {
		if counts[name] == 0 {
			t.Errorf("no %s diagnostic in report; got %v", name, counts)
		}
	}

	out.Reset()
	if got := runTo(&out, &errBuf, []string{"-json", "./clean"}); got != 0 {
		t.Fatalf("runTo(-json ./clean) = %d, want 0", got)
	}
	if !strings.Contains(out.String(), `"diagnostics": []`) {
		t.Errorf("clean run should serialize diagnostics as [], got:\n%s", out.String())
	}
}

func TestListAndUsage(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Errorf("run(-list) = %d, want 0", got)
	}
	if got := run([]string{"-only", "nonexistent", "./..."}); got != 2 {
		t.Errorf("run(-only nonexistent) = %d, want usage exit 2", got)
	}
	if got := run([]string{"-bogusflag"}); got != 2 {
		t.Errorf("run(-bogusflag) = %d, want usage exit 2", got)
	}
}

func TestLoadErrorExit(t *testing.T) {
	chdir(t, t.TempDir())
	if got := run([]string{"./..."}); got != 2 {
		t.Errorf("run outside any module = %d, want load-error exit 2", got)
	}
}
