package kernel

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// barrierMachine builds the smallest machine RunToBarrier can park: an
// echo server and a root program that makes a few calls — long enough
// for every other process to run and block — and then reaches a
// Barrier. tune runs before the machine starts.
func barrierMachine(tune func(k *Kernel)) *Kernel {
	k := newTestKernel()
	k.AddServer(EpPM, "echo", echoServer, ServerConfig{})
	root := k.SpawnUser("root", func(ctx *Context) {
		for i := 0; i < 3; i++ {
			ctx.SendRec(EpPM, Message{Type: 5})
		}
		ctx.Barrier()
	})
	k.SetRootProcess(root.Endpoint())
	if tune != nil {
		tune(k)
	}
	return k
}

// The base machine parked at its barrier is accepted by BarrierQuiescent
// and by CaptureImage; each case adds exactly one thing a clause of
// their shared predicate exists to refuse, and both refuse it.
func TestBarrierQuiescenceGates(t *testing.T) {
	cases := []struct {
		name string
		tune func(k *Kernel)
		// want is part of CaptureImage's error; "" means accepted.
		want string
	}{
		{"base machine", nil, ""},
		{"process blocked in SendRec", func(k *Kernel) {
			k.AddServer(EpVM, "silent", parkForever, ServerConfig{})
			k.SpawnUser("caller", func(ctx *Context) { ctx.SendRec(EpVM, Message{Type: 5}) })
		}, "caller(101) not parked in Receive (state 3)"}, // stateSendRec
		{"deferred crash pending", func(k *Kernel) {
			k.SetCrashHandler(func(info CrashInfo) error {
				if !info.Deferred {
					k.DeferCrash(info, testLimit)
				}
				return nil
			})
			k.AddServer(EpVM, "faulty", func(ctx *Context) { panic("boom") }, ServerConfig{})
		}, "pending crash/quarantine state"},
		{"component quarantined", func(k *Kernel) {
			k.AddServer(EpVM, "detached", parkForever, ServerConfig{})
			if err := k.QuarantineProcess(EpVM, "test"); err != nil {
				panic(err)
			}
		}, "pending crash/quarantine state"},
		{"transport fault armed", func(k *Kernel) {
			k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: testLimit}, 1)
			k.ArmIPCFault(EpVFS, IPCDrop) // nobody at EpVFS ever sends
		}, "in-flight transport events"},
		{"reply errno override armed", func(k *Kernel) {
			k.OverrideNextReplyErrno(EpVFS, EIO) // nobody at EpVFS ever replies
		}, "pending crash/quarantine state"},
	}
	for _, tc := range cases {
		k := barrierMachine(tc.tune)
		if !k.RunToBarrier(testLimit) {
			t.Errorf("%s: machine ended (%v) before its barrier", tc.name, k.StepResult())
			k.Teardown("test over")
			continue
		}
		quiescent := k.BarrierQuiescent()
		_, err := k.CaptureImage()
		switch {
		case tc.want == "":
			if !quiescent || err != nil {
				t.Errorf("%s: BarrierQuiescent = %v, CaptureImage error = %v, want both to accept", tc.name, quiescent, err)
			}
		case quiescent || err == nil || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: BarrierQuiescent = %v, CaptureImage error = %v, want both to refuse with %q", tc.name, quiescent, err, tc.want)
		}
		k.Teardown("test over")
	}
}

// Teardown of a parked machine may be repeated — campaign code shuts a
// machine down on more than one path — and the first reason sticks.
func TestTeardownIsIdempotent(t *testing.T) {
	k := barrierMachine(nil)
	if !k.RunToBarrier(testLimit) {
		t.Fatalf("machine ended (%v) before its barrier", k.StepResult())
	}
	k.Teardown("first")
	k.Teardown("second")
	if res := k.StepResult(); res.Outcome != OutcomeShutdown || res.Reason != "first" {
		t.Errorf("teardown result %+v, want shutdown with the first reason", res)
	}
	if k.RunToBarrier(testLimit) {
		t.Error("RunToBarrier on a torn-down machine reported a barrier")
	}
}

// Consecutive captures of one machine share the process entries they
// agree on (Kernel.imageProcs): a capture that only adds entries writes
// them past the last one's in place, when the array has room, and one
// that changes an entry copies. Every image equals a capture taken
// without sharing, and no later capture changes what an earlier image
// encodes to.
func TestConsecutiveCapturesShareEntries(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpPM, "echo", echoServer, ServerConfig{})
	var waiter Endpoint
	root := k.SpawnUser("root", func(ctx *Context) {
		await := func(ep Endpoint) {
			for ctx.Kernel().ProcessAlive(ep) {
				ctx.Yield()
			}
		}
		spawn := func(n int) {
			for i := 0; i < n; i++ {
				await(ctx.Kernel().SpawnUser("child", func(*Context) {}).Endpoint())
			}
		}
		for _, n := range []int{2, 1, 1} {
			spawn(n)
			ctx.Barrier()
		}
		waiter = ctx.Kernel().SpawnUser("waiter", func(ctx *Context) { ctx.Receive() }).Endpoint()
		spawn(1)
		ctx.Barrier()
		ctx.Send(waiter, Message{Type: 1})
		await(waiter)
		ctx.Barrier()
		ctx.SendRec(EpPM, Message{Type: 5})
		ctx.Barrier()
	})
	k.SetRootProcess(root.Endpoint())
	defer k.Teardown("test over")

	var imgs []*MachineImage
	var encoded [][]byte
	for r := 0; r < 6; r++ {
		if !k.RunToBarrier(testLimit) {
			t.Fatalf("machine ended (%v) before barrier %d", k.StepResult(), r)
		}
		kept := k.imageProcs
		k.imageProcs = nil
		fresh, err := k.CaptureImage()
		if err != nil {
			t.Fatalf("barrier %d: %v", r, err)
		}
		k.imageProcs = kept
		img, err := k.CaptureImage()
		if err != nil {
			t.Fatalf("barrier %d: %v", r, err)
		}
		if !reflect.DeepEqual(img, fresh) {
			t.Errorf("barrier %d: shared capture %+v, want %+v", r, img, fresh)
		}
		imgs, encoded = append(imgs, img), append(encoded, encodeMachine(t, img))
	}
	for r, img := range imgs {
		if !bytes.Equal(encodeMachine(t, img), encoded[r]) {
			t.Errorf("barrier %d: a later capture changed the image", r)
		}
	}
	shares := func(r int) bool { return &imgs[r].procs[0] == &imgs[r+1].procs[0] }
	if !shares(0) && !shares(1) && !shares(2) {
		t.Error("no capture that only adds entries wrote them in place")
	}
	if shares(3) {
		t.Error("the capture that turned the waiter dead shares the entries of the one before")
	}
	if !shares(4) {
		t.Error("a capture that agrees with the last one on every entry does not share them")
	}
}
