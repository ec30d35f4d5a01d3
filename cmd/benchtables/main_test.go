package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command instead of the tests when BENCHTABLES_ARGS
// is set, so a test can run it in a child process.
func TestMain(m *testing.M) {
	if args := os.Getenv("BENCHTABLES_ARGS"); args != "" {
		os.Args = append([]string{"benchtables"}, strings.Fields(args)...)
		main()
	}
	os.Exit(m.Run())
}

// A negative -workers exits 2 and names the flag before any table runs;
// the parallel engine would read it as one worker per CPU.
func TestNegativeWorkersRejected(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "BENCHTABLES_ARGS=-workers -1 -only 1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), "-workers -1") {
		t.Fatalf("benchtables -workers -1: %v, stderr %q; want exit 2 naming -workers", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected invocation printed tables:\n%s", stdout.String())
	}
}
