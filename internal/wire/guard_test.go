package wire_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPackageStaysClosed parses the package's non-test files and holds
// them to what makes the codec closed: no reflection (the walk by Go type
// is the oracle in wiretest, not a route), no second hash, no package of
// the module but sim (whose Hash the hashing direction feeds), and no
// package state — no variable a registration could fill and no init to
// fill it.
func TestPackageStaysClosed(t *testing.T) {
	forbidden := map[string]string{
		"reflect":         "the reflective walk lives in wiretest",
		"hash/fnv":        "state is hashed with sim.Hash",
		"fmt":             "it imports reflect",
		"encoding/binary": "it imports reflect",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if why, bad := forbidden[path]; bad {
				t.Errorf("%s imports %s: %s", fset.Position(imp.Pos()), path, why)
			}
			if strings.HasPrefix(path, "repro/") && path != "repro/internal/sim" {
				t.Errorf("%s imports %s: the codec depends on no package of the module but sim", fset.Position(imp.Pos()), path)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					t.Errorf("%s: a package-level var", fset.Position(d.Pos()))
				}
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					t.Errorf("%s: an init function", fset.Position(d.Pos()))
				}
			}
		}
	}
	if parsed < 3 {
		t.Fatalf("parsed %d files, the package has at least three", parsed)
	}
}
