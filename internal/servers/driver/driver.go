// Package driver implements the block-device driver server. It owns the
// device contents (plain state — a device is outside any recoverable
// component, which is exactly why writes to it are state-modifying
// SEEPs for the VFS). Requests may be synchronous (SendRec) or
// asynchronous: async requests carry a routing tag in D that is echoed
// in the completion message, letting the multithreaded VFS match
// completions to worker threads.
package driver

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Latency of one device operation in cycles (a "slow disk" relative to
// IPC, which is why the VFS is multithreaded).
const (
	readLatency  sim.Cycles = 600
	writeLatency sim.Cycles = 900
)

// The device is a table of pages of pageBlocks blocks each. A page holds
// its blocks and their fingerprint contributions, so the two are copied
// together and only when a block of the page changes.
const (
	pageShift  = 6
	pageBlocks = 1 << pageShift // = bits in a stale word: stale[p] covers page p
)

type page struct {
	blocks [pageBlocks][]byte
	mixes  [pageBlocks]uint64
}

// disk is the device contents: what an Image freezes and a Driver mutates.
type disk struct {
	n int32
	// pages[p] holds blocks p*pageBlocks onwards; nil until one of them is
	// written.
	pages []*page
	// fp is the rolling device fingerprint: the wrapping sum of every
	// block's mix (a never-written block contributes zero). stale marks
	// the blocks written since fp and their mix last covered them, nstale
	// counts them, so Fingerprint is O(blocks written since the last
	// call), not O(device).
	fp     uint64
	stale  []uint64
	nstale int
}

// Driver is the block-device driver.
type Driver struct {
	disk
	// owned marks (one bit a page) the pages only this driver points to
	// and may therefore write in place. Every other page is shared with an
	// Image — and through it with a snapshot and its forks — and is copied
	// by the first write that lands on it.
	owned []uint64
}

// Image is a frozen disk, safe for concurrent NewFromImage calls: nothing
// ever writes through its page pointers.
type Image struct{ disk }

func words(bits int) int { return (bits + 63) / 64 }

func newDisk(n int32) disk {
	np := words(int(n))
	return disk{n: n, pages: make([]*page, np), stale: make([]uint64, np)}
}

// New returns a driver with n blocks of fs.BlockSize bytes, none of them
// written: no page exists until the first write. A block holds its
// written prefix (fs.BlockDevice); the bytes past it read as zero.
func New(n int32) *Driver {
	d := newDisk(n)
	return &Driver{disk: d, owned: make([]uint64, words(len(d.pages)))}
}

// Share freezes the device as it is now. Only the page-pointer table is
// copied; afterwards the driver owns no page, so its next write to any
// of them copies that page first and the image never changes.
func (d *Driver) Share() *Image {
	d.Fingerprint()
	clear(d.owned)
	return &Image{d.disk.share()}
}

// NewFromImage returns a driver serving img's contents — a warm-forked
// disk. Only the page-pointer table is copied and no page is owned, so
// a forked disk cannot disturb the image or any sibling fork.
func NewFromImage(img *Image) *Driver {
	return &Driver{disk: img.share(), owned: make([]uint64, words(len(img.pages)))}
}

// share copies the disk's tables; the pages stay shared.
func (d *disk) share() disk {
	out := *d
	out.pages = append([]*page(nil), d.pages...)
	out.stale = append([]uint64(nil), d.stale...)
	return out
}

// block returns block b as stored — its written prefix — or nil when
// never written.
func (d *disk) block(b int32) []byte {
	if pg := d.pages[b>>pageShift]; pg != nil {
		return pg.blocks[b&(pageBlocks-1)]
	}
	return nil
}

// own returns page p for writing, copying it first unless this driver
// already owns it.
func (d *Driver) own(p int32) *page {
	if d.owned[p>>6]&(1<<(p&63)) != 0 {
		return d.pages[p]
	}
	pg := new(page)
	if shared := d.pages[p]; shared != nil {
		*pg = *shared
	}
	d.pages[p] = pg
	d.owned[p>>6] |= 1 << (p & 63)
	return pg
}

// Fingerprint returns the device content hash, re-hashing only blocks
// written since the previous call.
func (d *Driver) Fingerprint() uint64 {
	if d.nstale == 0 {
		return d.fp
	}
	for p, word := range d.stale {
		if word == 0 {
			continue
		}
		pg := d.own(int32(p))
		for ; word != 0; word &= word - 1 {
			i := bits.TrailingZeros64(word)
			mix := blockMix(int32(p<<pageShift|i), pg.blocks[i])
			d.fp += mix - pg.mixes[i]
			pg.mixes[i] = mix
		}
		d.stale[p] = 0
	}
	d.nstale = 0
	return d.fp
}

// SizeBytes estimates the memory an image retains, as part of
// boot.Snapshot.SizeBytes: a table slot per block plus the logical size
// of the written contents, fs.BlockSize a written block however short
// its stored prefix.
func (img *Image) SizeBytes() int64 {
	size := int64(img.n) * 24
	for _, pg := range img.pages {
		if pg == nil {
			continue
		}
		for _, blk := range pg.blocks {
			if blk != nil {
				size += fs.BlockSize
			}
		}
	}
	return size
}

// EncodedLen is the number of bytes WriteTo writes: the block count,
// then one byte a never-written block and a blob head and fs.BlockSize
// bytes a written one.
func (img *Image) EncodedLen() int64 {
	size := int64(uvarintLen(uint64(img.n))) + int64(img.n)
	for _, pg := range img.pages {
		if pg == nil {
			continue
		}
		for _, blk := range pg.blocks {
			if blk != nil {
				size += int64(uvarintLen(writtenHead)) + fs.BlockSize - 1
			}
		}
	}
	return size
}

// writtenHead is the blob head of a written block: its length plus one.
const writtenHead = fs.BlockSize + 1

// headBatch is how many bytes of heads — the block count, a written
// block's blob head, never-written blocks' empty blobs — WriteTo gathers
// before it writes them.
const headBatch = 256

// zeroBlock pads a written block's prefix to fs.BlockSize. Nothing
// writes it: an io.Writer must not modify what it is given.
var zeroBlock [fs.BlockSize]byte

// WriteTo writes the image to w as its block count followed by every
// block in order: a written one as a blob of fs.BlockSize bytes, its
// prefix then zeros, a never-written one as an empty blob — EncodedLen
// bytes in all. Each prefix goes to w from its device page and each
// padding from one shared zero block, so nothing the size of the image
// is built; the heads between them collect in a small buffer, which a
// run of never-written blocks flushes every headBatch bytes.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(p []byte) error {
		if len(p) == 0 {
			return nil
		}
		k, err := w.Write(p)
		n += int64(k)
		if err == nil && k < len(p) {
			err = io.ErrShortWrite
		}
		return err
	}
	heads := binary.AppendUvarint(make([]byte, 0, headBatch+binary.MaxVarintLen64), uint64(img.n))
	for b := int32(0); b < img.n; b++ {
		blk := img.block(b)
		if blk == nil {
			if heads = append(heads, 0); len(heads) < headBatch {
				continue
			}
		} else {
			heads = binary.AppendUvarint(heads, writtenHead)
		}
		if err := write(heads); err != nil {
			return n, err
		}
		heads = heads[:0]
		if blk == nil {
			continue
		}
		if err := write(blk); err != nil {
			return n, err
		}
		if err := write(zeroBlock[:fs.BlockSize-len(blk)]); err != nil {
			return n, err
		}
	}
	return n, write(heads)
}

// uvarintLen is the number of bytes x takes as a varint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeImage parses what WriteTo wrote. The blocks of the image are
// slices of d's buffer, not copies: a decoded image is as frozen as a
// shared one — a device never changes a block in place (fs.BlockDevice's
// contract), and each slice is clipped to its block, so nothing can grow
// into its neighbour — and whoever decodes an image gives the buffer up
// to it. The fingerprint state is not part of the stream: every written
// block is left stale, so a fork's first Fingerprint hashes them.
func DecodeImage(d *wire.Decoder) (*Image, error) {
	n := d.Uvarint()
	if d.Err() == nil && (n > math.MaxInt32 || n > uint64(d.Remaining())) {
		// A block takes at least one byte of the stream.
		return nil, fmt.Errorf("driver: image claims %d blocks in %d bytes", n, d.Remaining())
	}
	img := &Image{newDisk(int32(n))}
	for b := 0; b < int(n) && d.Err() == nil; b++ {
		size := d.Uvarint() // a blob: 0 for nil, else the length plus one
		if size == 0 {
			continue
		}
		if size != writtenHead {
			return nil, fmt.Errorf("driver: block %d of the image is %d bytes, want %d", b, size-1, fs.BlockSize)
		}
		blk := d.Take(fs.BlockSize)
		if blk == nil {
			break // truncated: d.Err says so
		}
		p := b >> pageShift
		if img.pages[p] == nil {
			img.pages[p] = new(page)
		}
		img.pages[p].blocks[b&(pageBlocks-1)] = blk[:fs.BlockSize:fs.BlockSize]
		img.stale[p] |= 1 << (b & (pageBlocks - 1))
		img.nstale++
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return img, nil
}

// blockMix hashes one block's index and contents into its fingerprint
// contribution (FNV-1a finished with a splitmix64-style avalanche, so
// wrapping-add combination keeps differences from cancelling). The
// contents are the full block: the stored prefix, then its zero tail in
// closed form, so the mix is the padded block's and costs O(prefix). A
// nil, never-written block contributes zero.
func blockMix(idx int32, data []byte) uint64 {
	if data == nil {
		return 0
	}
	h := sim.NewHash()
	h.Word(uint64(uint32(idx)))
	h.Bytes(data)
	h.Zeros(fs.BlockSize - len(data))
	return h.Sum()
}

// Run is the driver server body. Register it at kernel.EpDriver with the
// driver as its step (kernel.Stepper).
func (d *Driver) Run(ctx *kernel.Context) {
	for {
		d.Step(ctx, ctx.Receive())
	}
}

// Leaf declares every request: none suspends the driver. A read or a
// write charges its latency, the rest nothing (kernel.Stepper).
func (d *Driver) Leaf(m *kernel.Message) (sim.Cycles, bool) {
	switch m.Type {
	case proto.DevRead:
		return readLatency, true
	case proto.DevWrite:
		return writeLatency, true
	}
	return 0, true
}

// Step serves one request (kernel.Stepper).
func (d *Driver) Step(ctx *kernel.Context, m kernel.Message) {
	switch m.Type {
	case proto.DevRead:
		ctx.Tick(readLatency)
		data, errno := d.read(int32(m.A))
		resp := kernel.Message{Type: proto.DevReadDone, A: m.A, D: m.D, Errno: errno, Bytes: data}
		d.respond(ctx, m, resp)

	case proto.DevWrite:
		ctx.Tick(writeLatency)
		errno := d.write(int32(m.A), m.Bytes)
		resp := kernel.Message{Type: proto.DevWriteDone, A: m.A, D: m.D, Errno: errno}
		d.respond(ctx, m, resp)

	case proto.DevInfo:
		ctx.Reply(m.From, kernel.Message{A: int64(d.n)})

	case proto.RSPing:
		ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})

	default:
		if m.NeedsReply {
			ctx.ReplyErr(m.From, kernel.ENOSYS)
		}
	}
}

// respond completes a request through the channel it arrived on.
func (d *Driver) respond(ctx *kernel.Context, req kernel.Message, resp kernel.Message) {
	if req.NeedsReply {
		ctx.Reply(req.From, resp)
		return
	}
	ctx.Send(req.From, resp)
}

// read hands out block b's stored prefix itself — blocks are immutable
// once installed (fs.BlockDevice's contract) — or nil for one never
// written.
func (d *Driver) read(b int32) ([]byte, kernel.Errno) {
	if b < 0 || b >= d.n {
		return nil, kernel.EIO
	}
	return d.block(b), kernel.OK
}

// write installs data as block b's prefix. The buffer is adopted, not
// copied: WriteBlock hands ownership over (fs.BlockDevice's contract)
// and its one sender, fs.WriteAt, drops the buffer once sent.
func (d *Driver) write(b int32, data []byte) kernel.Errno {
	if b < 0 || b >= d.n {
		return kernel.EIO
	}
	p, i := b>>pageShift, b&(pageBlocks-1)
	d.own(p).blocks[i] = fs.OwnedBlock(data)
	if d.stale[p]&(1<<i) == 0 {
		d.stale[p] |= 1 << i
		d.nstale++
	}
	return kernel.OK
}
