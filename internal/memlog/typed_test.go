package memlog_test

import (
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// TestBootedMachineHasNoReflectiveContainer boots the machine the
// campaigns run and requires every container of every component store to
// have a typed route to the wire (wire.Typed): a primitive, or a struct
// with a field list. A new element type without a list — a seventh
// struct, a named integer kind — lands here, and not as 13 % of a
// fork's profile.
func TestBootedMachineHasNoReflectiveContainer(t *testing.T) {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	sys := boot.Boot(boot.Options{
		Config:     core.Config{Policy: seep.PolicyEnhanced, Seed: 7},
		Registry:   reg,
		Heartbeats: true,
	}, testsuite.RunnerInit(new(testsuite.Report)))
	defer sys.Shutdown("containers inspected")
	stores := 0
	for _, ep := range sys.OS.ComponentOrder() {
		store := sys.OS.ComponentStore(ep)
		if store == nil {
			continue
		}
		stores++
		if names := memlog.UntypedContainers(store); len(names) > 0 {
			t.Errorf("store %q codes %v by reflection: give the element type a Code(*wire.Codec) field list", store.Label(), names)
		}
	}
	if stores < 5 {
		t.Fatalf("inspected %d component stores, the machine has at least five", stores)
	}
}

// BenchmarkFingerprintStructMap is the route fs.inodes takes through
// Store.Fingerprint: a map of structs has no direct hash, so it hashes its
// image payload — through the inode's field list, where it used to walk
// reflect. One inode of 120 changes between fingerprints, as a file
// write does to it.
func BenchmarkFingerprintStructMap(b *testing.B) {
	s := memlog.NewStore("bench", memlog.Baseline)
	inodes := memlog.NewMap[int64, fs.Inode](s, "fs.inodes")
	for ino := int64(1); ino <= 120; ino++ {
		inodes.Set(ino, fs.Inode{Ino: ino, Type: 1, Size: 10, Nlink: 1, Blocks: [fs.NDirect]int32{int32(ino)}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node, _ := inodes.Get(7)
		node.Size++
		inodes.Set(7, node)
		if _, err := s.Fingerprint(); err != nil {
			b.Fatal(err)
		}
	}
}
