package driver

import (
	"bytes"
	"testing"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// drive boots a minimal machine with only the driver and a client.
func drive(t *testing.T, client func(ctx *kernel.Context)) {
	t.Helper()
	k := kernel.New(kernel.DefaultCostModel(), 1)
	d := New(16)
	k.AddServer(kernel.EpDriver, "driver", d.Run, kernel.ServerConfig{})
	root := k.SpawnUser("client", client)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(100_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

func TestSyncReadWrite(t *testing.T) {
	drive(t, func(ctx *kernel.Context) {
		payload := bytes.Repeat([]byte{0xAB}, 100)
		w := ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.DevWrite, A: 3, Bytes: payload})
		if w.Errno != kernel.OK {
			t.Errorf("write = %v", w.Errno)
		}
		r := ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.DevRead, A: 3})
		// A block holds its written prefix: the 100 bytes, no padding.
		if r.Errno != kernel.OK || len(r.Bytes) != len(payload) {
			t.Errorf("read = %v, %d bytes", r.Errno, len(r.Bytes))
		}
		if !bytes.Equal(r.Bytes, payload) {
			t.Error("read back wrong data")
		}
	})
}

func TestReadUnwrittenBlockIsZero(t *testing.T) {
	drive(t, func(ctx *kernel.Context) {
		r := ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.DevRead, A: 7})
		if r.Errno != kernel.OK {
			t.Fatalf("read = %v", r.Errno)
		}
		// Nil: no stored prefix, so every byte of the block reads as zero.
		if r.Bytes != nil {
			t.Fatalf("unwritten block reads as %d stored bytes, want none", len(r.Bytes))
		}
	})
}

func TestOutOfRangeBlocks(t *testing.T) {
	drive(t, func(ctx *kernel.Context) {
		if r := ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.DevRead, A: 16}); r.Errno != kernel.EIO {
			t.Errorf("read OOB = %v, want EIO", r.Errno)
		}
		if r := ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.DevWrite, A: -1}); r.Errno != kernel.EIO {
			t.Errorf("write OOB = %v, want EIO", r.Errno)
		}
	})
}

func TestAsyncCompletionEchoesTag(t *testing.T) {
	drive(t, func(ctx *kernel.Context) {
		ctx.Send(kernel.EpDriver, kernel.Message{Type: proto.DevWrite, A: 1, D: 777, Bytes: []byte("x")})
		done := ctx.Receive()
		if done.Type != proto.DevWriteDone || done.D != 777 || done.Errno != kernel.OK {
			t.Errorf("completion = %+v", done)
		}
		ctx.Send(kernel.EpDriver, kernel.Message{Type: proto.DevRead, A: 1, D: 778})
		done = ctx.Receive()
		if done.Type != proto.DevReadDone || done.D != 778 || done.Bytes[0] != 'x' {
			t.Errorf("read completion = %+v", done)
		}
	})
}

func TestDevInfoAndPing(t *testing.T) {
	drive(t, func(ctx *kernel.Context) {
		info := ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.DevInfo})
		if info.A != 16 {
			t.Errorf("DevInfo = %d blocks, want 16", info.A)
		}
		ping := ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.RSPing})
		if ping.Type != proto.RSPing {
			t.Errorf("ping reply = %+v", ping)
		}
	})
}

func TestUnknownRequest(t *testing.T) {
	drive(t, func(ctx *kernel.Context) {
		r := ctx.SendRec(kernel.EpDriver, kernel.Message{Type: 999})
		if r.Errno != kernel.ENOSYS {
			t.Errorf("unknown request = %v, want ENOSYS", r.Errno)
		}
	})
}

func TestWritesCostMoreThanReads(t *testing.T) {
	k := kernel.New(kernel.DefaultCostModel(), 1)
	d := New(16)
	k.AddServer(kernel.EpDriver, "driver", d.Run, kernel.ServerConfig{})
	var readCost, writeCost kernel.Errno
	_ = readCost
	_ = writeCost
	var tRead, tWrite uint64
	root := k.SpawnUser("client", func(ctx *kernel.Context) {
		t0 := uint64(ctx.Now())
		ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.DevRead, A: 1})
		t1 := uint64(ctx.Now())
		ctx.SendRec(kernel.EpDriver, kernel.Message{Type: proto.DevWrite, A: 1, Bytes: []byte("y")})
		t2 := uint64(ctx.Now())
		tRead, tWrite = t1-t0, t2-t1
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(100_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if tWrite <= tRead {
		t.Fatalf("write latency %d not above read latency %d", tWrite, tRead)
	}
}
