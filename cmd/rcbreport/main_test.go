package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The RCB share is taken over this module's own source: a nested module
// (the bench/ harness), a dot-directory (a build cache) and testdata
// are not part of it.
func TestCountPackagesSkipsNestedModulesAndDotDirs(t *testing.T) {
	root := t.TempDir()
	for path, body := range map[string]string{
		"go.mod":                  "module m\n",
		"a.go":                    "package m\n\nvar A = 1\n",
		"internal/kernel/k.go":    "package kernel\n\n// comment\nvar K = 1\n",
		"bench/go.mod":            "module m/bench\n",
		"bench/b.go":              "package bench\n",
		"bench/internal/sut/s.go": "package sut\n",
		".bench_build/gen/g.go":   "package gen\n",
		"internal/testdata/t.go":  "package testdata\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	counts, err := countPackages(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts["(root)"] == nil || counts["internal/kernel"] == nil {
		t.Fatalf("counted packages %v, want exactly (root) and internal/kernel", counts)
	}
	if k := counts["internal/kernel"]; k.lines != 2 || !k.rcb {
		t.Errorf("internal/kernel = %+v, want 2 RCB lines", *k)
	}
}
