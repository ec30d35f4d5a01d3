package osiris

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/cothread"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
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

// Every simulated process and every VFS worker thread runs on a host
// coroutine, which is a parked goroutine: one that its machine forgets to
// end leaks without a symptom. No goroutine may outlive a machine,
// however the machine ended.
func TestNoGoroutineOutlivesAMachine(t *testing.T) {
	const limit = 100_000_000

	// threaded builds a machine whose server parks one worker awaiting a
	// completion that never comes and a second one inside a kernel call
	// nobody answers, and has a third idle again after its job, beside an
	// idle server and a root that act decides.
	threaded := func(act func(k *kernel.Kernel, ctx *kernel.Context)) *kernel.Kernel {
		k := kernel.New(kernel.DefaultCostModel(), 1)
		k.SetCrashHandler(func(ci kernel.CrashInfo) error {
			return k.QuarantineProcess(ci.Victim, "test")
		})
		k.AddServer(kernel.EpDriver, "silent", func(ctx *kernel.Context) {
			for {
				ctx.Receive()
			}
		}, kernel.ServerConfig{})
		k.AddServer(kernel.EpVFS, "threaded", func(ctx *kernel.Context) {
			pool := cothread.NewPool(ctx, 3)
			for {
				ctx.Receive()
				pool.Thread(0).Start(func(th *cothread.Thread) { th.Block() })
				pool.Thread(2).Start(func(*cothread.Thread) {})
				pool.Thread(1).Start(func(*cothread.Thread) {
					ctx.SendRec(kernel.EpDriver, kernel.Message{Type: 1})
				})
			}
		}, kernel.ServerConfig{})
		root := k.SpawnUser("root", func(ctx *kernel.Context) {
			ctx.Send(kernel.EpVFS, kernel.Message{Type: 300})
			ctx.Yield() // both workers park
			act(k, ctx)
		})
		k.SetRootProcess(root.Endpoint())
		return k
	}
	suiteOpts := func() boot.Options {
		reg := usr.NewRegistry()
		testsuite.Register(reg)
		return boot.Options{
			Config:     core.Config{Policy: seep.PolicyEnhanced, Seed: 7},
			Registry:   reg,
			Heartbeats: true,
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Run to completion", func(t *testing.T) {
			res := threaded(func(*kernel.Kernel, *kernel.Context) {}).Run(limit)
			if res.Outcome != kernel.OutcomeCompleted {
				t.Errorf("outcome = %v (%s)", res.Outcome, res.Reason)
			}
		}},
		{"cycle limit", func(t *testing.T) {
			res := threaded(func(_ *kernel.Kernel, ctx *kernel.Context) { ctx.Hang() }).Run(limit)
			if res.Outcome != kernel.OutcomeHang {
				t.Errorf("outcome = %v (%s)", res.Outcome, res.Reason)
			}
		}},
		{"fail-stop, then quarantine", func(t *testing.T) {
			k := threaded(func(k *kernel.Kernel, ctx *kernel.Context) {
				if errno := k.FailStopProcess(kernel.EpVFS, "test"); errno != kernel.OK {
					t.Errorf("FailStopProcess = %v", errno)
				}
				ctx.Yield() // the crash handler quarantines it
			})
			if res := k.Run(limit); res.Outcome != kernel.OutcomeCompleted || !k.IsQuarantined(kernel.EpVFS) {
				t.Errorf("outcome = %v (%s), quarantined = %v", res.Outcome, res.Reason, k.IsQuarantined(kernel.EpVFS))
			}
		}},
		{"RunToBarrier + Teardown", func(t *testing.T) {
			k := threaded(func(_ *kernel.Kernel, ctx *kernel.Context) { ctx.Barrier() })
			if !k.RunToBarrier(limit) {
				t.Error("barrier not reached")
			}
			k.Teardown("test")
		}},
		{"Snapshot.Fork + Shutdown", func(t *testing.T) {
			opts := suiteOpts()
			src := boot.Boot(opts, testsuite.RunnerInit(new(testsuite.Report)))
			if !src.Kernel().RunToBarrier(limit) {
				t.Fatal("boot barrier not reached")
			}
			snap, err := boot.CaptureParked(src, opts)
			src.Shutdown("captured")
			if err != nil {
				t.Fatal(err)
			}
			sys, err := snap.Fork(boot.ForkParams{Seed: 7}, testsuite.RunnerResumeFrom(new(testsuite.Report), testsuite.Report{}))
			if err != nil {
				t.Fatal(err)
			}
			if !sys.Kernel().RunToBarrier(limit) {
				t.Error("fork did not reach the next barrier")
			}
			sys.Shutdown("test")
		}},
		{"24-run campaign at workers 2", func(t *testing.T) {
			profile, err := faultinject.Profile(7)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := faultinject.RunCampaign(faultinject.CampaignConfig{
				Policy: seep.PolicyEnhanced, Model: faultinject.FailStop,
				Seed: 7, MaxRuns: 24, Workers: 2,
			}, profile)
			if res.Runs != 24 {
				t.Errorf("campaign made %d runs, want 24", res.Runs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 100; i++ { // let the previous subtest's goroutine finish exiting
				runtime.Gosched()
				before = min(before, runtime.NumGoroutine())
			}
			tc.run(t)
			// A coroutine is gone when stop returns; a campaign worker may
			// still be on its way out after the WaitGroup released us.
			for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// A campaign worker's machines keep their coroutines in the worker's
// arena from one run to the next; the runner stops them when it closes.
// After ArmedRunner.Close, and after RunCampaign returns, no goroutine a
// run started is left, at one worker or two.
func TestCampaignArenasEndWithTheirRunner(t *testing.T) {
	profile, err := faultinject.Profile(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultinject.CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: faultinject.FailStop, Seed: 7, MaxRuns: 24,
	}
	plan := faultinject.PlanCampaign(cfg, profile)
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		t.Run(fmt.Sprintf("ArmedRunner at workers %d", workers), func(t *testing.T) {
			goroutinesReturn(t, func() {
				runner := faultinject.NewArmedRunner(cfg, plan)
				parallel.Map(workers, len(plan), func(i int) faultinject.RunResult {
					return runner.Run(cfg.Seed+uint64(i)*7919, plan[i])
				})
				runner.Close()
			})
		})
		t.Run(fmt.Sprintf("RunCampaign at workers %d", workers), func(t *testing.T) {
			goroutinesReturn(t, func() {
				if res, _ := faultinject.RunCampaign(cfg, profile); res.Runs+res.Untriggered != len(plan) {
					t.Errorf("campaign made %d runs, want %d", res.Runs+res.Untriggered, len(plan))
				}
			})
		})
	}
}

// goroutinesReturn runs f and fails unless the goroutine count comes back
// to what it was before.
func goroutinesReturn(t *testing.T, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ { // let goroutines that are ending finish
		runtime.Gosched()
		before = min(before, runtime.NumGoroutine())
	}
	f()
	for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
