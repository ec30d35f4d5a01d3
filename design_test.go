package osiris

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	dottedName = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?$`)
	goWord     = regexp.MustCompile(`[A-Za-z_]\w*`)
)

// DESIGN.md and EXPERIMENTS.md name only what exists: every backticked
// .go path is the end of a file's path in the tree
// (`internal/fs/fs.go`, `fs/fs.go` or `fs.go`), and the last part of
// every backticked dotted Go name (`memlog.Store.Capture`) is a word of
// the repository's Go source. A sentence about a mechanism that is gone
// fails here instead of outliving it.
func TestDesignNamesExist(t *testing.T) {
	var paths []string
	words := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		paths = append(paths, "/"+filepath.ToSlash(path))
		src, err := os.ReadFile(path)
		for _, w := range goWord.FindAllString(string(src), -1) {
			words[w] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The floor per document: a scan that finds fewer names than that is
	// broken, not clean.
	for doc, floor := range map[string]int{"DESIGN.md": 100, "EXPERIMENTS.md": 20} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, m := range backticked.FindAllStringSubmatch(string(text), -1) {
			name := m[1]
			switch {
			case strings.HasSuffix(name, ".go") && !strings.ContainsAny(name, " *"):
				checked++
				if !hasPathSuffix(paths, "/"+name) {
					t.Errorf("%s names `%s`, which is no file of the tree", doc, name)
				}
			case dottedName.MatchString(name):
				checked++
				parts := strings.Split(strings.TrimSuffix(name, "()"), ".")
				if last := parts[len(parts)-1]; !words[last] {
					t.Errorf("%s names `%s`, and %s is no word of the Go source", doc, name, last)
				}
			}
		}
		if checked < floor {
			t.Fatalf("checked %d names in %s: the scan finds less than it should", checked, doc)
		}
	}
}

// experimentsBudget bounds EXPERIMENTS.md: the paper's tables, their
// claims and divergences, and the measurements that explain a mechanism
// still in the tree. A change's before/after record belongs in its
// CHANGES.md entry and its commit, so prose growth fails here.
const experimentsBudget = 64 << 10

func TestExperimentsWithinBudget(t *testing.T) {
	info, err := os.Stat("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > experimentsBudget {
		t.Errorf("EXPERIMENTS.md is %d bytes, over its budget of %d", info.Size(), experimentsBudget)
	}
}

func hasPathSuffix(paths []string, suffix string) bool {
	for _, p := range paths {
		if strings.HasSuffix(p, suffix) {
			return true
		}
	}
	return false
}
