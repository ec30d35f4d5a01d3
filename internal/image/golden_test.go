package image_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
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

// TestGoldenBytes pins format v1: the SHA-256 of whole image files, as
// the commit before the codecs became one field list per type wrote them
// (2e8e082, go1.24 — the flate hashes also pin compress/flate's output).
// The reliable-transport rung is there because only it has an IPC plane
// in its kernel frame.
func TestGoldenBytes(t *testing.T) {
	reliable := suiteOpts(7)
	reliable.Config.IPCTimeoutCycles = core.DefaultIPCTimeoutCycles
	for _, tc := range []struct {
		name       string
		snap       *boot.Snapshot
		raw, flate string
	}{
		{"boot", rungSnapshot(t, suiteOpts(7), 0),
			"ab5f7fc64c59530ba944712d1e134db3643939ce8b69a388164a68455a39c3c4",
			"addb5445ed4c7de5a1c71ec33706305e3e0db427547641d75fff6158580890cf"},
		{"mid-suite", rungSnapshot(t, suiteOpts(7), 20),
			"616a42105ea47939773e36e2a55c62ed31824b9fb21f10796d268965b7eecaf1",
			"c21060fc894491ddcd98f19f241eb4858f494a57eb222531108cf8505a5b1cbf"},
		{"reliable transport", rungSnapshot(t, reliable, 3),
			"cf2e7f6b307eea056de655fd21ec70bc15f41b4d087f6a8ec000e44cd84f65d5",
			"67d92a5f106924d10159d16c0ab5cfeef8f681949f998096fce91f8b6e410f69"},
	} {
		for _, compress := range []bool{false, true} {
			sum := sha256.Sum256(encode(t, tc.snap, image.WriteOptions{Compress: compress, Workers: 1}))
			want := tc.raw
			if compress {
				want = tc.flate
			}
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s, compress=%v: image hashes to %s, format v1 wrote %s", tc.name, compress, got, want)
			}
		}
	}
}
