package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
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

// TestReplayGoldenTraces replays the committed trace corpus, the traces
// faultcampaign -record writes (cmd/faultcampaign TestGolden pins them):
// every one replays bit-identically. An edited copy is reported as a
// mismatch naming the edited field, and a trace of the retired v1
// format is an error.
func TestReplayGoldenTraces(t *testing.T) {
	dir := filepath.Join(golden.Dir(t), "traces")
	var out bytes.Buffer
	mismatches, err := runReplay(&out, dir)
	if err != nil {
		t.Fatal(err)
	}
	if pass := strings.Count(out.String(), "PASS "); mismatches != 0 || pass != 8 {
		t.Fatalf("replayed the golden traces: %d PASS, %d mismatches, want 8 and 0\n%s", pass, mismatches, out.String())
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden trace: %v", err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"Recoveries": 1`), []byte(`"Recoveries": 7`), 1)
	if bytes.Equal(edited, data) {
		t.Fatalf("%s records no single recovery to edit", files[0])
	}
	path := filepath.Join(t.TempDir(), filepath.Base(files[0]))
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if mismatches, err := runReplay(&out, path); err != nil || mismatches != 1 {
		t.Fatalf("edited trace: %d mismatches, err %v, want 1 mismatch", mismatches, err)
	}
	if !strings.Contains(out.String(), "MISMATCH ") || !strings.Contains(out.String(), "Recoveries: recorded 7, replayed 1") {
		t.Errorf("the mismatch does not name the edited field:\n%s", out.String())
	}

	v1 := `{"Format":"osiris-trace/v1","Kind":"single","Policy":"enhanced","Seed":7961,` +
		`"Injection":{"Server":"ds","Site":"ds.get","Occurrence":4,"Type":"crash"},` +
		`"Outcome":{"Outcome":"fail","Triggered":1,"TestsFailed":1,"Reason":"root process terminated","Consistent":true}}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runReplay(io.Discard, path); err == nil || !strings.Contains(err.Error(), "unsupported trace format") {
		t.Errorf("v1 trace: err %v, want an unsupported trace format error", err)
	}
}
