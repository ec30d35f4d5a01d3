// Package golden pins simulation output in files under testdata/golden
// at the module root. A test hands Check what it produced and the name
// of its golden file; a mismatch fails the test. A missing file is
// written from the output and still fails the test, so regenerating
// every golden is one command that fails once and then passes:
//
//	rm -r testdata/golden && go test ./...; go test ./...
package golden

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check compares got with the golden file name (a slash-separated path
// under testdata/golden). On a mismatch it fails t and names the first
// line that differs; when the file is missing it writes got there and
// fails t.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join(Dir(t), filepath.FromSlash(name))
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		os.MkdirAll(filepath.Dir(path), 0o755) // WriteFile reports its failure
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden %s is missing and could not be written: %v", name, err)
		}
		t.Errorf("golden %s was missing: wrote it, run the test again", name)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	const end = "<end of output>"
	gl, wl := strings.Split(string(got)+"\n"+end, "\n"), strings.Split(string(want)+"\n"+end, "\n")
	n := 0
	for n < min(len(gl), len(wl))-1 && gl[n] == wl[n] {
		n++
	}
	t.Errorf("output differs from golden %s at line %d:\n got: %q\nwant: %q", name, n+1, gl[n], wl[n])
}

// Dir is testdata/golden in the module the test runs in: under the
// nearest directory at or above the working directory that holds a
// go.mod.
func Dir(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "testdata", "golden")
		}
		if filepath.Dir(dir) == dir {
			t.Fatal("golden: no go.mod at or above the working directory")
		}
		dir = filepath.Dir(dir)
	}
}

// Stdout runs f and returns what it wrote to os.Stdout.
func Stdout(t testing.TB, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() { b, _ := io.ReadAll(r); r.Close(); out <- b }()
	defer func(stdout *os.File) { os.Stdout = stdout }(os.Stdout)
	os.Stdout = w
	f()
	w.Close()
	return <-out
}
