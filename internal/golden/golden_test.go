package golden

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps the failures Check reports.
type recorder struct {
	testing.TB
	failures []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	r.FailNow()
}

func (r *recorder) Fatal(args ...any) {
	r.failures = append(r.failures, fmt.Sprint(args...))
	r.FailNow()
}

// inModule runs the test from a package directory two levels below a
// fresh module root and returns that root.
func inModule(t *testing.T) string {
	root := t.TempDir()
	pkg := filepath.Join(root, "internal", "pkg")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(pkg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	return root
}

func TestMissingGoldenIsWrittenAndFails(t *testing.T) {
	root := inModule(t)
	r := &recorder{TB: t}
	Check(r, "dir/out.txt", []byte("a\nb\n"))
	if len(r.failures) != 1 || !strings.Contains(r.failures[0], "was missing") {
		t.Fatalf("a missing golden reported %q, want one failure saying it was missing", r.failures)
	}
	got, err := os.ReadFile(filepath.Join(root, "testdata", "golden", "dir", "out.txt"))
	if err != nil || string(got) != "a\nb\n" {
		t.Fatalf("the golden was written as %q (%v), want the output", got, err)
	}
}

func TestMatchPasses(t *testing.T) {
	inModule(t)
	Check(&recorder{TB: t}, "out.txt", []byte("a\nb\n"))
	r := &recorder{TB: t}
	Check(r, "out.txt", []byte("a\nb\n"))
	if len(r.failures) != 0 {
		t.Fatalf("output equal to its golden failed: %q", r.failures)
	}
}

func TestMismatchNamesFirstDifferingLine(t *testing.T) {
	inModule(t)
	Check(&recorder{TB: t}, "out.txt", []byte("a\nb\nc\n"))
	for _, tc := range []struct {
		got, line, gotLine, wantLine string
	}{
		{"a\nB\nc\n", "line 2", `"B"`, `"b"`},
		{"a\nb\n", "line 3", `""`, `"c"`},
		{"a\nb\nc\nd\n", "line 4", `"d"`, `""`},
		{"a\nb\nc", "line 4", "<end of output>", `""`},
	} {
		r := &recorder{TB: t}
		Check(r, "out.txt", []byte(tc.got))
		if len(r.failures) != 1 {
			t.Fatalf("%q: %d failures, want 1", tc.got, len(r.failures))
		}
		for _, want := range []string{"out.txt", tc.line, tc.gotLine, tc.wantLine} {
			if !strings.Contains(r.failures[0], want) {
				t.Errorf("%q: failure %q does not mention %s", tc.got, r.failures[0], want)
			}
		}
	}
}

// From every package directory of this module, the goldens are those
// under the module root: the directory holding this module's go.mod.
func TestModuleRootFromAnyPackage(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module repro\n") {
		t.Fatalf("%s is not the module root: %v", root, err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	want := filepath.Join(root, "testdata", "golden")
	packages := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			return filepath.SkipDir // a nested module has goldens of its own
		}
		if gofiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gofiles) == 0 {
			return nil
		}
		packages++
		if err := os.Chdir(path); err != nil {
			return err
		}
		if got := Dir(t); got != want {
			t.Errorf("from %s: goldens in %s, want %s", path, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if packages < 10 {
		t.Fatalf("walked %d package directories under %s", packages, root)
	}
}
