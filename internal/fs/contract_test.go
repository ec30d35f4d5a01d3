package fs

import (
	"bytes"
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/sim"
)

// contractDevice enforces BlockDevice's aliasing contract on whatever
// drives it: it remembers every slice it handed out from ReadBlock, every
// buffer it was handed by WriteBlock and every result of a ReadAt over it
// (readAt, which may be a block lent further up), with the bytes each
// held at that moment, and check fails once any of them has changed — a
// reader wrote into a block it was lent, or a writer kept using a buffer
// it had given away.
type contractDevice struct {
	*MemDevice
	lent []lentBlock
}

type lentBlock struct {
	what string
	b    int32
	data []byte // the shared slice itself
	was  []byte // its contents when it crossed the interface
}

func (d *contractDevice) remember(what string, b int32, data []byte) {
	d.lent = append(d.lent, lentBlock{what, b, data, append([]byte(nil), data...)})
}

func (d *contractDevice) ReadBlock(b int32) ([]byte, kernel.Errno) {
	data, errno := d.MemDevice.ReadBlock(b)
	if errno == kernel.OK {
		d.remember("read from", b, data)
	}
	return data, errno
}

func (d *contractDevice) WriteBlock(b int32, data []byte) kernel.Errno {
	d.remember("written to", b, data)
	return d.MemDevice.WriteBlock(b, data)
}

// readAt reads through f.ReadAt and remembers the result. It then
// appends to the result, as any reader may: a lent block's capacity is
// clipped, so the append copies and the block stays as it was.
func (d *contractDevice) readAt(f *FS, ino, off int64, n int) []byte {
	data, errno := f.ReadAt(d, ino, off, n)
	if errno == kernel.OK {
		d.remember("read by ReadAt at file", int32(off/BlockSize), data)
		_ = append(data, 'Z')
	}
	return data
}

func (d *contractDevice) check(t *testing.T) {
	t.Helper()
	for _, l := range d.lent {
		if !bytes.Equal(l.data, l.was) {
			t.Fatalf("a buffer %s block %d changed after it crossed the BlockDevice interface", l.what, l.b)
		}
	}
}

// A partial-block write after a read is the one in-place consumer of a
// block: it must work on a copy, so whoever read the block earlier — in
// the machine, a snapshot or a sibling fork — never sees it change.
func TestPartialWriteLeavesEarlierReadersAlone(t *testing.T) {
	f := New(memlog.NewStore("vfs", memlog.Baseline), 64)
	dev := &contractDevice{MemDevice: NewMemDevice(64)}
	ino, _ := f.Create("/f")
	f.WriteAt(dev, ino, 0, bytes.Repeat([]byte{'a'}, 2*BlockSize))
	if got := dev.readAt(f, ino, 0, 2*BlockSize); !bytes.Equal(got, bytes.Repeat([]byte{'a'}, 2*BlockSize)) {
		t.Fatal("read back wrong data")
	}
	// Reads inside one block's prefix, lent by the device.
	dev.readAt(f, ino, 5, 20)
	dev.readAt(f, ino, BlockSize, BlockSize)
	// Mid-block, block-straddling and hole-filling partial writes.
	f.WriteAt(dev, ino, 10, []byte("XYZ"))
	f.WriteAt(dev, ino, BlockSize-2, []byte("straddle"))
	f.WriteAt(dev, ino, 5*BlockSize+7, []byte("past a hole"))
	dev.check(t)

	want := bytes.Repeat([]byte{'a'}, 2*BlockSize)
	copy(want[10:], "XYZ")
	copy(want[BlockSize-2:], "straddle")
	if got, _ := f.ReadAt(dev, ino, 0, 2*BlockSize); !bytes.Equal(got, want) {
		t.Fatal("partial writes did not land")
	}
	if got, _ := f.ReadAt(dev, ino, 5*BlockSize, 18); !bytes.Equal(got, append(make([]byte, 7), "past a hole"...)) {
		t.Fatalf("write past a hole reads back %q", got)
	}
	dev.check(t)
}

// The same under a random mix of reads and writes of every alignment.
func TestPropertyAliasingContract(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := sim.NewRNG(seed)
		f := New(memlog.NewStore("vfs", memlog.Baseline), 128)
		dev := &contractDevice{MemDevice: NewMemDevice(128)}
		ino, _ := f.Create("/f")
		model := make([]byte, 8*BlockSize)
		size := 0
		for op := 0; op < 60; op++ {
			off, n := r.Intn(6*BlockSize), 1+r.Intn(2*BlockSize)
			if r.Intn(3) == 0 {
				if r.Intn(2) == 0 { // a read that fits in one block
					n = 1 + r.Intn(BlockSize-off%BlockSize)
				}
				got := dev.readAt(f, ino, int64(off), n)
				end := min(off+n, size)
				if off < end && !bytes.Equal(got, model[off:end]) {
					t.Fatalf("seed %d op %d: read at %d differs from the model", seed, op, off)
				}
				continue
			}
			data := bytes.Repeat([]byte{byte('a' + op%26)}, n)
			f.WriteAt(dev, ino, int64(off), data)
			copy(model[off:], data)
			size = max(size, off+n)
			dev.check(t)
		}
	}
}
