package memlog_test

import (
	"fmt"
	"strings"
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
// campaigns run — every container of every component store is built on
// the way, and a constructor refuses an element type wire has no route
// for — and then builds one such container to see the refusal. A new
// element type without a list — a seventh struct, a named integer kind —
// fails here, at construction, and not at the first snapshot.
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
		if sys.OS.ComponentStore(ep) != nil {
			stores++
		}
	}
	if stores < 5 {
		t.Fatalf("inspected %d component stores, the machine has at least five", stores)
	}

	type listless struct{ X int }
	s := memlog.NewStore("refuses", memlog.Baseline)
	for name, build := range map[string]func(){
		"cell":  func() { memlog.NewCell(s, "cell", listless{}) },
		"key":   func() { memlog.NewMap[float64, int](s, "key") },
		"value": func() { memlog.NewMap[int, listless](s, "value") },
		"slice": func() { memlog.NewSlice[seep.Policy](s, "slice") },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"`+name+`"`) {
					t.Errorf("a %s container of a type without a codec: panic %v, want one naming it", name, r)
				}
			}()
			build()
		}()
	}
}

// BenchmarkFingerprintStructMap is fs.inodes through Store.Fingerprint:
// the map's field list, and the inode's, walked by a hashing codec. One
// inode of 120 changes between fingerprints, as a file write does to it.
func BenchmarkFingerprintStructMap(b *testing.B) {
	s := memlog.NewStore("bench", memlog.Baseline)
	inodes := memlog.NewMap[int64, fs.Inode](s, "fs.inodes")
	for ino := int64(1); ino <= 120; ino++ {
		inodes.Set(ino, fs.Inode{Ino: ino, Type: 1, Size: 10, Nlink: 1, Blocks: []int32{int32(ino)}})
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
