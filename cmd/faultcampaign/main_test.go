package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestMain runs the command instead of the tests when FAULTCAMPAIGN_ARGS
// is set: faultcampaign re-executes the test binary that way to run a
// campaign in a child process.
func TestMain(m *testing.M) {
	if args := os.Getenv("FAULTCAMPAIGN_ARGS"); args != "" {
		os.Args = append([]string{"faultcampaign"}, strings.Fields(args)...)
		main()
	}
	os.Exit(m.Run())
}

// faultcampaign runs the command with args in a child process and
// returns its stdout, its stderr and its exit status.
func faultcampaign(t *testing.T, args string) (stdout, stderr []byte, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "FAULTCAMPAIGN_ARGS="+args)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), cmd.ProcessState.ExitCode()
}

// A campaign the health gate fails exits 1 and still leaves its CPU
// profile: the exit status is returned past the deferred profile stop.
func TestGateExitKeepsCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	_, stderr, code := faultcampaign(t, "-model failstop -policy enhanced -maxruns 24 -quiet -cpuprofile "+prof)
	if code != 1 {
		t.Fatalf("gated unhealthy campaign exited %d, want 1\n%s", code, stderr)
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("the gate's exit left an empty CPU profile")
	}
}

// TestGolden pins the whole stdout of each campaign below, run at
// -workers 1 with -gate=false, as campaigns/<name>.txt, and the traces
// the fail-stop campaign records as traces/. CI diffs the dense, the
// background-transport and the three-fault campaigns at -workers 2
// against the same files.
func TestGolden(t *testing.T) {
	if golden.Race {
		t.Skip("whole campaigns under the race detector; a non-race CI step runs them")
	}
	for _, c := range []struct {
		name, args string
		record     bool
	}{
		{"failstop-maxruns24-coldboot", "-model failstop -policy enhanced -maxruns 24 -coldboot", false},
		{"failstop-maxruns24", "-model failstop -policy enhanced -maxruns 24", true},
		{"failstop-maxruns24-ipcfaults", "-model failstop -policy enhanced -maxruns 24 -ipcfaults", false},
		{"failstop-samples40", "-model failstop -policy enhanced -samples 40", false},
		{"ipcmix-maxruns24", "-model ipcmix -policy enhanced -maxruns 24", false},
		{"failstop-faults2-runs40", "-model failstop -policy enhanced -faults 2 -runs 40", false},
		{"edfi-faults3-runs200-ipcfaults", "-model edfi -policy enhanced -faults 3 -runs 200 -ipcfaults", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			args := c.args + " -workers 1 -gate=false"
			dir := t.TempDir()
			if c.record {
				args += " -record " + dir
			}
			stdout, stderr, code := faultcampaign(t, args)
			if code != 0 {
				t.Fatalf("faultcampaign %s exited %d\n%s", args, code, stderr)
			}
			golden.Check(t, "campaigns/"+c.name+".txt", stdout)
			if c.record {
				checkTraces(t, dir)
			}
		})
	}
}

// checkTraces compares the traces recorded in dir, file by file, with
// the golden corpus in traces/.
func checkTraces(t *testing.T, dir string) {
	recorded, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) == 0 {
		t.Fatal("the campaign recorded no trace")
	}
	names := make(map[string]bool)
	for _, f := range recorded {
		names[f.Name()] = true
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, "traces/"+f.Name(), got)
	}
	pinned, err := os.ReadDir(filepath.Join(golden.Dir(t), "traces"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	for _, f := range pinned {
		if !names[f.Name()] {
			t.Errorf("golden trace %s was not recorded", f.Name())
		}
	}
}

// A count flag out of range exits 2 and names the flag before any
// campaign runs; the campaign layer would read it as its default.
func TestCountFlagsRejected(t *testing.T) {
	for _, args := range []string{
		"-samples 0", "-samples -2", "-runs 0 -faults 2", "-faults 0", "-faults -1",
		"-maxruns -1", "-workers -1",
	} {
		_, stderr, code := faultcampaign(t, args)
		flag := strings.Fields(args)[0]
		if code != 2 || !strings.Contains(string(stderr), flag+" ") {
			t.Errorf("faultcampaign %s: exit %d, stderr %q; want exit 2 naming %s", args, code, stderr, flag)
		}
	}
}

func TestValidateCountBounds(t *testing.T) {
	for _, tc := range []struct {
		v, least int
		ok       bool
	}{
		{0, 0, true}, {5, 0, true}, {-1, 0, false}, {1, 1, true}, {0, 1, false}, {-3, 1, false},
	} {
		err := validateCount("samples", tc.v, tc.least)
		if (err == nil) != tc.ok {
			t.Errorf("validateCount(%d, at least %d) = %v", tc.v, tc.least, err)
		}
		if err != nil && !strings.Contains(err.Error(), "-samples") {
			t.Errorf("error %q does not name -samples", err)
		}
	}
}

// README.md's flag table names only flags that exist: every backticked
// -flag of a row the table does not give to another command ("(on
// `rcbreport`)") appears in faultcampaign's -h output. A row about a flag
// that is gone fails here instead of outliving it.
func TestReadmeFlagsExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, usage, _ := faultcampaign(t, "-h")
	table := strings.SplitN(string(readme), "| Flag | Meaning |", 2)
	if len(table) != 2 {
		t.Fatal("README.md has no flag table")
	}
	flagName := regexp.MustCompile("`(-[a-z]+)[^`]*`")
	checked := 0
	for _, row := range strings.Split(table[1], "\n") {
		if !strings.HasPrefix(row, "|") {
			if checked > 0 {
				break
			}
			continue
		}
		first := strings.Split(row, "|")[1]
		if strings.Contains(first, "(on `") {
			continue
		}
		for _, m := range flagName.FindAllStringSubmatch(first, -1) {
			checked++
			if !regexp.MustCompile(`(?m)^  ` + m[1] + `\b`).Match(usage) {
				t.Errorf("README.md's flag table names %s, which faultcampaign -h does not list", m[1])
			}
		}
	}
	if checked < 8 {
		t.Fatalf("checked %d flags in README.md's table: the scan finds less than it should", checked)
	}
}
