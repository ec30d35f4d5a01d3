//go:build !race

package fs

import (
	"runtime"
	"testing"

	"repro/internal/memlog"
)

// Allocation budget of a small write (the race detector allocates on its
// own, hence the build tag). A block holds its written prefix, so a
// 100-byte write to a never-written block builds a 100-byte buffer, not
// a zero-padded BlockSize one.
func TestSmallWriteAllocation(t *testing.T) {
	const files, perFile = 4, NDirect
	f := New(memlog.NewStore("vfs", memlog.Baseline), files*perFile+1)
	dev := NewMemDevice(files*perFile + 1)
	var inos [files]int64
	for i := range inos {
		inos[i], _ = f.Create("/f" + itoa(int64(i)))
	}
	payload := make([]byte, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ino := range inos {
		for bi := int64(0); bi < perFile; bi++ { // every write lands on a fresh block
			if n, errno := f.WriteAt(dev, ino, bi*BlockSize, payload); n != len(payload) {
				t.Fatalf("WriteAt = %d, %v", n, errno)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if perWrite := (after.TotalAlloc - before.TotalAlloc) / (files * perFile); perWrite > 256 {
		t.Fatalf("a 100-byte write to a fresh block allocates %d bytes, want at most 256", perWrite)
	}
}
