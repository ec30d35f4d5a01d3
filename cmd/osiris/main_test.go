package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestMain runs the command instead of the tests when OSIRIS_ARGS is
// set: the tests re-execute the test binary that way to run osiris in a
// child process.
func TestMain(m *testing.M) {
	if args := os.Getenv("OSIRIS_ARGS"); args != "" {
		os.Args = append([]string{"osiris"}, strings.Fields(args)...)
		main()
	}
	os.Exit(m.Run())
}

// osiris runs the command with args in a child process and returns its
// stdout, its stderr and its exit status.
func osiris(t *testing.T, args string) (stdout, stderr []byte, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "OSIRIS_ARGS="+args)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), cmd.ProcessState.ExitCode()
}

// TestGolden pins the whole stdout of a suite run through the boot path
// the examples share, with one injected fault that PM recovers from.
func TestGolden(t *testing.T) {
	const args = "-seed 1 -stats -inject pm.fork.entry:2"
	stdout, stderr, code := osiris(t, args)
	if code != 0 {
		t.Fatalf("osiris %s exited %d\n%s", args, code, stderr)
	}
	if !bytes.Contains(stdout, []byte("\nrecoveries: 1\n")) {
		t.Errorf("osiris %s did not recover once:\n%s", args, stdout)
	}
	golden.Check(t, "osiris/seed1-stats-inject-pm-fork-2.txt", stdout)
}

// A malformed -inject value is refused with exit 2, naming the flag,
// before anything boots.
func TestInjectFlagRejected(t *testing.T) {
	for _, v := range []string{"pm.fork.entry:x", "pm.fork.entry:0", "pm.fork.entry:-1", "pm.fork.entry:", ":2"} {
		stdout, stderr, code := osiris(t, "-inject "+v)
		if code != 2 || !strings.Contains(string(stderr), "-inject "+v+":") || len(stdout) != 0 {
			t.Errorf("osiris -inject %s: exit %d, stderr %q, stdout %q; want exit 2 naming -inject", v, code, stderr, stdout)
		}
	}
}
