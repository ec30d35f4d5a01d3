package driver

import (
	"bytes"
	"testing"

	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// paddedDisk serves fs.BlockDevice from a Driver, without a kernel in
// between, and keeps beside it the disk as full blocks: every buffer
// written, zero-padded to fs.BlockSize.
type paddedDisk struct {
	*Driver
	full map[int32][]byte
}

func (d *paddedDisk) ReadBlock(b int32) ([]byte, kernel.Errno) { return d.read(b) }

func (d *paddedDisk) WriteBlock(b int32, data []byte) kernel.Errno {
	d.full[b] = append(append([]byte(nil), data...), make([]byte, fs.BlockSize-len(data))...)
	return d.write(b, data)
}

// fingerprint is Driver.Fingerprint's definition over the full blocks.
func (d *paddedDisk) fingerprint() uint64 {
	var fp uint64
	for b, blk := range d.full {
		h := sim.NewHash()
		h.Word(uint64(uint32(b)))
		h.Bytes(blk)
		fp += h.Sum()
	}
	return fp
}

// encoding is the image stream of the full blocks.
func (d *paddedDisk) encoding() []byte {
	e := wire.NewEncoder()
	e.Uvarint(uint64(d.n))
	for b := int32(0); b < d.n; b++ {
		e.Blob(d.full[b]) // nil when never written
	}
	return e.Bytes()
}

// A disk whose blocks hold their written prefixes is the disk of full,
// zero-padded blocks: random writes and reads through fs over MemDevice
// and over the driver read what a plain byte model of the file holds,
// and the driver's fingerprint, image bytes and decoded image are those
// of the padded disk.
func TestPropertyPrefixBlocksMatchFullBlocks(t *testing.T) {
	const blocks = 3 * pageBlocks
	for seed := uint64(1); seed <= 20; seed++ {
		r := sim.NewRNG(seed)
		disk := &paddedDisk{Driver: New(blocks), full: map[int32][]byte{}}
		devs := []fs.BlockDevice{fs.NewMemDevice(blocks), disk}
		fss := make([]*fs.FS, len(devs))
		inos := make([]int64, len(devs))
		for i := range devs {
			fss[i] = fs.New(memlog.NewStore("vfs", memlog.Baseline), blocks)
			inos[i], _ = fss[i].Create("/f")
		}
		var model []byte // the file
		check := func(op int) {
			t.Helper()
			if got, want := disk.Fingerprint(), disk.fingerprint(); got != want {
				t.Fatalf("seed %d op %d: fingerprint %x, padded disk's %x", seed, op, got, want)
			}
			enc := written(t, disk.Share())
			if !bytes.Equal(enc, disk.encoding()) {
				t.Fatalf("seed %d op %d: image bytes differ from the padded disk's", seed, op)
			}
			dec, err := DecodeImage(wire.NewDecoder(enc))
			if err != nil {
				t.Fatalf("seed %d op %d: DecodeImage: %v", seed, op, err)
			}
			if got := NewFromImage(dec).Fingerprint(); got != disk.Fingerprint() {
				t.Fatalf("seed %d op %d: decoded image fingerprints %x, want %x", seed, op, got, disk.Fingerprint())
			}
		}
		for op := 0; op < 100; op++ {
			// Mostly short lengths, some spanning blocks; offsets over five
			// blocks, so writes land on fresh, short and full blocks alike.
			off, n := r.Intn(5*fs.BlockSize), 1+r.Intn(1+r.Intn(2*fs.BlockSize))
			if r.Intn(3) == 0 {
				want := model[min(off, len(model)):min(off+n, len(model))]
				for i, f := range fss {
					if got, _ := f.ReadAt(devs[i], inos[i], int64(off), n); !bytes.Equal(got, want) {
						t.Fatalf("seed %d op %d: device %d reads %d bytes at %d unlike the model", seed, op, i, n, off)
					}
				}
				continue
			}
			v := byte(0)
			if r.Intn(4) != 0 {
				v = byte(1 + r.Intn(255))
			}
			data := bytes.Repeat([]byte{v}, n)
			for i, f := range fss {
				if w, errno := f.WriteAt(devs[i], inos[i], int64(off), data); w != n {
					t.Fatalf("seed %d op %d: device %d WriteAt = %d, %v", seed, op, i, w, errno)
				}
			}
			if end := off + n; end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[off:], data)
			if op%25 == 24 {
				check(op)
			}
		}
		for i, f := range fss {
			if got, _ := f.ReadAt(devs[i], inos[i], 0, len(model)); !bytes.Equal(got, model) {
				t.Fatalf("seed %d: device %d reads the file unlike the model", seed, i)
			}
		}
	}
}
