// Command rcbreport computes the Reliable Computing Base accounting of
// §VI-A: lines of code per package, classified into RCB (code that must
// be trusted to be fault-free: checkpointing, restartability, window
// management, initialization, message-passing substrate) versus
// recoverable component code. The paper reports an RCB of 12.5% of the
// prototype; this tool reports the equivalent split for this
// reproduction.
//
// Usage:
//
//	rcbreport [-root DIR] [-tests]
//	rcbreport -replay TRACE.json|DIR
//
// With -replay, the tool instead re-executes recorded fault traces
// (written by `faultcampaign -record`): every run is a pure function of
// the provenance stored in its trace, so the replay must reproduce the
// recorded outcome bit-identically. One PASS/MISMATCH line is printed
// per trace; any mismatch (a non-reproducible build) exits 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/faultinject"
)

// rcbPackages are the trusted packages (relative to the module root).
var rcbPackages = map[string]bool{
	"internal/sim":      true, // deterministic substrate
	"internal/memlog":   true, // checkpointing / undo log
	"internal/seep":     true, // recovery-window management
	"internal/kernel":   true, // message-passing substrate
	"internal/cothread": true, // thread library state fixup
	"internal/core":     true, // restart/rollback/reconciliation engine
	"internal/boot":     true, // initialization
}

func main() {
	var (
		root     = flag.String("root", ".", "module root directory")
		withTest = flag.Bool("tests", false, "include _test.go files")
		replay   = flag.String("replay", "", "replay recorded fault traces (a trace file or a directory of *.json) and diff against the recorded outcomes")
	)
	flag.Parse()
	if *replay != "" {
		mismatches, err := runReplay(os.Stdout, *replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcbreport:", err)
			os.Exit(1)
		}
		if mismatches > 0 {
			fmt.Fprintf(os.Stderr, "rcbreport: %d trace(s) did not replay bit-identically\n", mismatches)
			os.Exit(1)
		}
		return
	}
	if err := run(*root, *withTest); err != nil {
		fmt.Fprintln(os.Stderr, "rcbreport:", err)
		os.Exit(1)
	}
}

// runReplay re-executes every trace under path, writes one PASS or
// MISMATCH line per trace to w, and reports how many diverged from their
// recording.
func runReplay(w io.Writer, path string) (mismatches int, err error) {
	files, err := faultinject.ListTraceFiles(path)
	if err != nil {
		return 0, err
	}
	for _, file := range files {
		t, err := faultinject.ReadTraceFile(file)
		if err != nil {
			return mismatches, err
		}
		replayed, err := t.Replay()
		if err != nil {
			return mismatches, fmt.Errorf("%s: %w", file, err)
		}
		// Serving is provenance (how the campaign served the recorded
		// run: ladder rung plus elided, rejoined or wedged decision, or
		// the fallback reason); replay
		// always cold-boots the same result, so it is reported, not
		// compared.
		serving := ""
		if t.Serving != "" {
			serving = ", served " + t.Serving
		}
		if ok, diff := t.Matches(replayed); ok {
			fmt.Fprintf(w, "PASS     %s (%s %s seed %d: %v%s)\n", file, t.Kind, t.Policy, t.Run.Seed, t.Run.Outcome, serving)
		} else {
			mismatches++
			fmt.Fprintf(w, "MISMATCH %s (%s %s seed %d%s): %s\n", file, t.Kind, t.Policy, t.Run.Seed, serving, diff)
		}
	}
	fmt.Fprintf(w, "replayed %d trace(s), %d mismatch(es)\n", len(files), mismatches)
	return mismatches, nil
}

type pkgCount struct {
	pkg   string
	lines int
	rcb   bool
}

// countPackages counts the code lines of every package of the module
// rooted at root, keyed by directory relative to root.
func countPackages(root string, withTests bool) (map[string]*pkgCount, error) {
	counts := make(map[string]*pkgCount)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			// The denominator is this module's own source: not dot-directories
			// (.git, build caches), not testdata, and not a nested module —
			// a subdirectory with its own go.mod, such as the bench/ harness.
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if !withTests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = "(root)"
		}
		n, err := countCodeLines(path)
		if err != nil {
			return err
		}
		pc := counts[rel]
		if pc == nil {
			pc = &pkgCount{pkg: rel, rcb: rcbPackages[rel]}
			counts[rel] = pc
		}
		pc.lines += n
		return nil
	})
	return counts, err
}

func run(root string, withTests bool) error {
	counts, err := countPackages(root, withTests)
	if err != nil {
		return err
	}

	pkgs := make([]*pkgCount, 0, len(counts))
	for _, pc := range counts {
		pkgs = append(pkgs, pc)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].pkg < pkgs[j].pkg })

	totalRCB, total := 0, 0
	fmt.Printf("%-28s %8s %6s\n", "package", "LoC", "RCB")
	for _, pc := range pkgs {
		mark := ""
		if pc.rcb {
			mark = "yes"
			totalRCB += pc.lines
		}
		total += pc.lines
		fmt.Printf("%-28s %8d %6s\n", pc.pkg, pc.lines, mark)
	}
	fmt.Printf("\ntotal: %d LoC, RCB: %d LoC (%.1f%%)\n",
		total, totalRCB, 100*float64(totalRCB)/float64(total))
	fmt.Println("paper reference: RCB = 29,732 of 237,270 LoC (12.5%)")
	return nil
}

// countCodeLines counts non-blank, non-comment-only source lines (an
// approximation of SLOCCount, which the paper used).
func countCodeLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if i := strings.Index(line, "*/"); i >= 0 {
				line = strings.TrimSpace(line[i+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}
