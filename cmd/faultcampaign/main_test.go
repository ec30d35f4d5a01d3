package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
// the fail-stop campaign records as traces/. CI diffs the dense and the
// three-fault campaigns at -workers 2 against the same files.
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
		"-maxruns -1", "-workers -1", "-ipctimeout -7", "-ipcretry -1 -ipcfaults",
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

func TestValidateBPRejectsNegative(t *testing.T) {
	err := validateBP("droprate", -1)
	if err == nil {
		t.Fatal("negative rate accepted")
	}
	for _, want := range []string{"-droprate", "-1", "negative", "[0, 10000]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestValidateBPRejectsOverFullScale(t *testing.T) {
	err := validateBP("corruptrate", 10001)
	if err == nil {
		t.Fatal("rate above 10000 accepted")
	}
	for _, want := range []string{"-corruptrate", "10001", "10000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestValidateBPAcceptsBounds(t *testing.T) {
	for _, v := range []int{0, 1, 50, 10000} {
		if err := validateBP("duprate", v); err != nil {
			t.Errorf("validateBP(%d) = %v, want nil", v, err)
		}
	}
}

func TestValidateBPFlagsNamesTheOffender(t *testing.T) {
	flags := []bpFlag{
		{"droprate", 50},
		{"duprate", 0},
		{"delayrate", 10000},
		{"reorderrate", 20000},
		{"corruptrate", -3},
	}
	err := validateBPFlags(flags)
	if err == nil {
		t.Fatal("out-of-range flag set accepted")
	}
	if !strings.Contains(err.Error(), "-reorderrate") {
		t.Errorf("error %q should name the first offending flag -reorderrate", err)
	}
	if err := validateBPFlags(flags[:3]); err != nil {
		t.Errorf("all-valid prefix rejected: %v", err)
	}
}
