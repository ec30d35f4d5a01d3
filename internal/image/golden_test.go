package image_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/boot"
	"repro/internal/golden"
	"repro/internal/image"
	"repro/internal/testsuite"
)

// rungSnapshot boots the suite under opts, walks to barrier number rung
// (0 is the boot barrier) and captures the parked machine.
func rungSnapshot(t testing.TB, opts boot.Options, rung int) *boot.Snapshot {
	t.Helper()
	sys := boot.Boot(opts, testsuite.RunnerInit(new(testsuite.Report)))
	defer sys.Shutdown("rung captured")
	for i := 0; i <= rung; i++ {
		if !sys.Kernel().RunToBarrier(testLimit) {
			t.Fatalf("suite ended before rung %d", i)
		}
	}
	snap, err := boot.CaptureParked(sys, opts)
	if err != nil {
		t.Fatalf("rung %d: %v", rung, err)
	}
	return snap
}

// TestGoldenBytes pins format v1 apart from the simulation: the
// committed image of the suite's boot rung, written by the commit
// before the codecs became one field list per type (2e8e082, go1.24),
// decodes and re-encodes to its own bytes (which pins compress/flate's
// output too) and to the raw image that commit hashed. A codec change
// that moves a byte fails it; regenerating the goldens does not touch
// it.
func TestGoldenBytes(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("testdata", "boot-rung.v1.flate"))
	if err != nil {
		t.Fatal(err)
	}
	snap := decode(t, file, 1)
	if !bytes.Equal(encode(t, snap, image.WriteOptions{Compress: true, Workers: 1}), file) {
		t.Error("the format-v1 flate image does not re-encode to its own bytes")
	}
	sum := sha256.Sum256(encode(t, snap, image.WriteOptions{Workers: 1}))
	if got, want := hex.EncodeToString(sum[:]), "ab5f7fc64c59530ba944712d1e134db3643939ce8b69a388164a68455a39c3c4"; got != want {
		t.Errorf("the format-v1 image re-encodes raw to SHA-256 %s, format v1 wrote %s", got, want)
	}
}

// TestGolden pins the SHA-256 of the raw and flate images of two rungs
// a booted suite reaches (image/rungs.txt): a change to the simulation
// or the codec that moves a byte of them fails it. A rung with the
// reliable transport on has no image (TestImageRefusesTransportPlane).
func TestGolden(t *testing.T) {
	var out strings.Builder
	for _, tc := range []struct {
		name string
		snap *boot.Snapshot
	}{
		{"boot", rungSnapshot(t, suiteOpts(7), 0)},
		{"mid-suite", rungSnapshot(t, suiteOpts(7), 20)},
	} {
		for _, compress := range []bool{false, true} {
			sum := sha256.Sum256(encode(t, tc.snap, image.WriteOptions{Compress: compress, Workers: 1}))
			fmt.Fprintf(&out, "%-18s compress=%-5v %x\n", tc.name, compress, sum)
		}
	}
	golden.Check(t, "image/rungs.txt", []byte(out.String()))
}
