package boot

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/usr"
)

// The disk is shared page by page and block by block between a captured
// machine, its snapshot and every fork (DESIGN.md §7): nothing is copied
// at fork time, reads hand out the stored block itself and writes adopt
// the writer's buffer. What keeps that sound is fs.BlockDevice's
// aliasing contract. This test drives the one operation that could break
// it — a partial-block write, which reads a block, modifies it and
// writes it back — through every sharer at once.

const aliasFile = "/shared"

// aliasPristine is the file every sharer starts from: two full blocks.
func aliasPristine() []byte { return bytes.Repeat([]byte{'a'}, 2*fs.BlockSize) }

// aliasMutate reads the file (becoming an earlier reader of both
// blocks), overwrites a few bytes in the middle of each block with tag
// and returns what the file reads as afterwards.
func aliasMutate(p *usr.Proc, tag byte) []byte {
	fd, _ := p.Open(aliasFile, 0)
	before, _ := p.Read(fd, 2*fs.BlockSize)
	for _, off := range []int64{10, fs.BlockSize + 10} {
		p.LSeek(fd, off)
		p.Write(fd, bytes.Repeat([]byte{tag}, 16))
	}
	p.LSeek(fd, 0)
	after, _ := p.Read(fd, 2*fs.BlockSize)
	p.Close(fd)
	if !bytes.Equal(before, aliasPristine()) {
		return before // report the damage instead of the write's result
	}
	return after
}

// aliasWant is the file after aliasMutate(tag) on a pristine disk.
func aliasWant(tag byte) []byte {
	want := aliasPristine()
	for _, off := range []int{10, fs.BlockSize + 10} {
		copy(want[off:], bytes.Repeat([]byte{tag}, 16))
	}
	return want
}

func TestForkAliasingPartialWritesStayPrivate(t *testing.T) {
	opts := Options{Config: core.Config{Policy: seep.PolicyEnhanced, Seed: 1}}
	var pathfinderSaw []byte
	sys := Boot(opts, func(p *usr.Proc) int {
		fd, _ := p.Create(aliasFile)
		p.Write(fd, aliasPristine())
		p.Close(fd)
		p.Barrier()
		pathfinderSaw = aliasMutate(p, 'P')
		return 0
	})
	if !sys.Kernel().RunToBarrier(testLimit) {
		t.Fatal("pathfinder never reached its barrier")
	}
	snap, err := CaptureParked(sys, opts)
	if err != nil {
		t.Fatalf("CaptureParked: %v", err)
	}

	// The pathfinder keeps writing while eight forks of the one rung do
	// the same, all concurrently: under -race any in-place change of a
	// shared block, page or table is a reported race, and without it a
	// wrong byte below.
	const forks = 8
	saw := make([][]byte, forks)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if res := sys.Run(testLimit); res.Outcome != kernel.OutcomeCompleted {
			t.Errorf("pathfinder: %v (%s)", res.Outcome, res.Reason)
		}
	}()
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forked, err := snap.Fork(ForkParams{Seed: uint64(i)}, func(p *usr.Proc) int {
				saw[i] = aliasMutate(p, byte('A'+i))
				return 0
			})
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			if res := forked.Run(testLimit); res.Outcome != kernel.OutcomeCompleted {
				t.Errorf("fork %d: %v (%s)", i, res.Outcome, res.Reason)
			}
		}(i)
	}
	wg.Wait()

	if !bytes.Equal(pathfinderSaw, aliasWant('P')) {
		t.Errorf("pathfinder's file is not pristine + its own write")
	}
	for i, got := range saw {
		if !bytes.Equal(got, aliasWant(byte('A'+i))) {
			t.Errorf("fork %d's file is not pristine + its own write", i)
		}
	}
	// And the snapshot still holds the pristine file.
	var late []byte
	forked, err := snap.Fork(ForkParams{Seed: 99}, func(p *usr.Proc) int {
		fd, _ := p.Open(aliasFile, 0)
		late, _ = p.Read(fd, 2*fs.BlockSize)
		return 0
	})
	if err != nil {
		t.Fatalf("late fork: %v", err)
	}
	forked.Run(testLimit)
	if !bytes.Equal(late, aliasPristine()) {
		t.Errorf("the snapshot's file changed under its forks")
	}
}
