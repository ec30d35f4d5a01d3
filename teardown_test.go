package osiris

import (
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/seep"
)

// A run that ends while a user program waits inside a system call tears
// the program down by unwinding its body, and suite programs defer
// system calls (`defer p.Unlink(dir)` in t_fs_mkdir_exists). Such a
// deferred call used to park on a kernel that no longer schedules, and
// kernel.killAll — waiting for the goroutine to exit — deadlocked with
// it. The reproducer is osirisbench's campaign_cascade plan at seed 42,
// candidate 186, rebuilt here exactly as bench/internal/sut builds it.
func TestTeardownUnwindsDeferredSyscalls(t *testing.T) {
	const (
		seed      = 42
		candidate = 186
		rateBP    = 50
	)
	profile, err := faultinject.Profile(seed)
	if err != nil {
		t.Fatal(err)
	}
	ipc := faultinject.IPCOptions{
		Faults: kernel.IPCFaultConfig{DropBP: rateBP, DupBP: rateBP, DelayBP: rateBP, ReorderBP: rateBP, CorruptBP: rateBP},
		Seed:   seed,
	}
	plans := faultinject.PlanMultiCampaign(faultinject.MultiCampaignConfig{
		Policy: seep.PolicyEnhanced, Model: faultinject.FullEDFI,
		Faults: 3, Runs: 2*800 + 32, Seed: seed, IPC: ipc,
	}, profile)

	done := make(chan faultinject.MultiRunResult, 1)
	go func() {
		done <- faultinject.RunMultiWith(seep.PolicyEnhanced, seed+candidate*104729, plans[candidate], ipc)
	}()
	select {
	case rr := <-done:
		// A controlled shutdown mid-suite is what leaves the program
		// blocked in Mkdir with its Unlink still deferred.
		if rr.Outcome != faultinject.OutcomeShutdown {
			t.Errorf("reproducer no longer ends by mid-suite shutdown: %v (%s)", rr.Outcome, rr.Reason)
		}
	case <-time.After(time.Second):
		t.Fatal("RunMultiWith did not return within 1 s: teardown deadlocked")
	}
}
