// Package image is the on-disk form of a warm-boot snapshot
// (boot.Snapshot / core.OSImage): a container of independent frames —
// one for the kernel machine image, one per captured component, one for
// the disk blocks, one for the boot metadata — each with its own length
// and CRC32-C checksum header and optional flate compression. Frames
// are independent so encode and decode fan out across cores via
// internal/parallel, mirroring the per-subsystem parallel
// checkpoint/restore design the roadmap names as the model.
//
// The format round-trips bit-identically: a machine forked from a
// decoded snapshot is indistinguishable from one forked from the
// in-memory original (same outcomes, same cycle counts, same counters,
// same audit verdicts), and writing the same snapshot twice produces
// identical bytes.
//
// What cannot be serialized is validated instead: the program registry
// holds function values, so the file records the registered program
// names and ReadSnapshot checks them against the registry the caller
// supplies.
package image

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/parallel"
	"repro/internal/servers/driver"
	"repro/internal/usr"
	"repro/internal/wire"
)

// Magic leads every snapshot image file.
const Magic = "OSIMG001"

// flag bits of the header flags byte.
const flagCompressed = 1 << 0

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteOptions control the on-disk encoding.
type WriteOptions struct {
	// Compress flate-compresses every frame payload.
	Compress bool
	// Workers bounds the encode fan-out (0: all cores, 1: serial).
	Workers int
}

// frame names.
const (
	frameMeta   = "meta"
	frameKernel = "kernel"
	frameBlocks = "blocks"
	slotPrefix  = "slot/"
)

// encodedFrame is one finished frame: the raw payload length, the
// stored (possibly compressed) bytes and their checksum.
type encodedFrame struct {
	name   string
	rawLen int
	stored []byte
	crc    uint32
	err    error
}

// WriteSnapshot encodes snap into w. Frames are encoded (and, when
// requested, compressed) in parallel, then written sequentially, so w
// receives a deterministic byte stream regardless of worker count.
func WriteSnapshot(w io.Writer, snap *boot.Snapshot, o WriteOptions) error {
	type job struct {
		name  string
		build func(e *wire.Encoder) error
	}
	meta := metaOf(snap)
	jobs := []job{
		{frameMeta, encoding(meta.code)},
		{frameKernel, encoding(snap.Image.Machine.Code)},
		{frameBlocks, func(e *wire.Encoder) error {
			snap.Disk.EncodeTo(e)
			return nil
		}},
	}
	for i := range snap.Image.Slots {
		slot := &snap.Image.Slots[i]
		jobs = append(jobs, job{slotFrame(slot.EP), encoding(func(c *wire.Codec) { codeSlot(c, slot) })})
	}

	frames := parallel.Map(o.Workers, len(jobs), func(i int) encodedFrame {
		e := wire.NewEncoder()
		if err := jobs[i].build(e); err != nil {
			return encodedFrame{name: jobs[i].name, err: err}
		}
		raw := e.Bytes()
		stored := raw
		if o.Compress {
			var buf bytes.Buffer
			fw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
			if _, err := fw.Write(raw); err != nil {
				return encodedFrame{name: jobs[i].name, err: err}
			}
			if err := fw.Close(); err != nil {
				return encodedFrame{name: jobs[i].name, err: err}
			}
			stored = buf.Bytes()
		}
		return encodedFrame{
			name:   jobs[i].name,
			rawLen: len(raw),
			stored: stored,
			crc:    crc32.Checksum(stored, crcTable),
		}
	})
	for _, f := range frames {
		if f.err != nil {
			return fmt.Errorf("image: frame %q: %w", f.name, f.err)
		}
	}

	hdr := wire.NewEncoder()
	var flags byte
	if o.Compress {
		flags |= flagCompressed
	}
	hdr.Uvarint(uint64(flags))
	hdr.Uvarint(uint64(len(frames)))
	if _, err := w.Write([]byte(Magic)); err != nil {
		return err
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	for _, f := range frames {
		fh := wire.NewEncoder()
		fh.Str(f.name)
		fh.Uvarint(uint64(f.rawLen))
		fh.Uvarint(uint64(len(f.stored)))
		fh.U32(f.crc)
		if _, err := w.Write(fh.Bytes()); err != nil {
			return err
		}
		if _, err := w.Write(f.stored); err != nil {
			return err
		}
	}
	return nil
}

// storedFrame is one parsed-but-not-decoded frame.
type storedFrame struct {
	rawLen uint64
	stored []byte
	crc    uint32
}

// maxInflateRatio is the most deflate can make of a stored byte: a match
// of 258 bytes costs at least two bits.
const maxInflateRatio = 1032

// open verifies the frame's checksum and returns its payload. The
// checksum vouches for the stored bytes only, so the raw length the header
// claims is held against them before it sizes the buffer, and inflation
// stops one byte past it: a frame cannot make the reader allocate or
// inflate more than the claim its stored size can back.
func (f storedFrame) open(compressed bool) ([]byte, error) {
	if got := crc32.Checksum(f.stored, crcTable); got != f.crc {
		return nil, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", f.crc, got)
	}
	if !compressed {
		if uint64(len(f.stored)) != f.rawLen {
			return nil, fmt.Errorf("raw length %d, header says %d", len(f.stored), f.rawLen)
		}
		return f.stored, nil
	}
	if f.rawLen > maxInflateRatio*uint64(len(f.stored)) {
		return nil, fmt.Errorf("header says %d raw bytes, more than %d stored bytes can inflate to", f.rawLen, len(f.stored))
	}
	raw := make([]byte, f.rawLen)
	zr := flate.NewReader(bytes.NewReader(f.stored))
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, fmt.Errorf("inflating the %d raw bytes the header says: %w", f.rawLen, err)
	}
	var past [1]byte
	switch n, err := io.ReadFull(zr, past[:]); {
	case n != 0:
		return nil, fmt.Errorf("inflates past the %d raw bytes the header says", f.rawLen)
	case err != io.EOF:
		return nil, err
	}
	return raw, nil
}

// ReadSnapshot decodes a snapshot image from r. reg must register the
// same programs the captured machine booted with; workers bounds the
// decode fan-out (0: all cores). Any truncation, checksum mismatch or
// schema divergence is an error — an image is all-or-nothing (unlike
// the campaign journal, which drops torn tails).
func ReadSnapshot(r io.Reader, reg *usr.Registry, workers int) (*boot.Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("image: bad magic (not a snapshot image)")
	}
	d := wire.NewDecoder(data[len(Magic):])
	compressed := byte(d.Uvarint())&flagCompressed != 0
	nFrames := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// The header carries no checksum, so the count is checked against the
	// bytes that follow before it sizes anything: the shortest frame
	// header is an empty name, two lengths and the CRC.
	const minFrameHeader = 1 + 1 + 1 + 4
	if nFrames > uint64(d.Remaining())/minFrameHeader {
		return nil, fmt.Errorf("image: header claims %d frames in %d bytes", nFrames, d.Remaining())
	}
	frames := make(map[string]storedFrame, nFrames)
	for i := uint64(0); i < nFrames; i++ {
		name := d.Str()
		f := storedFrame{rawLen: d.Uvarint()}
		storedLen := d.Uvarint()
		f.crc = d.U32()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("image: frame %d header: %w", i, err)
		}
		if storedLen > uint64(d.Remaining()) {
			return nil, fmt.Errorf("image: frame %q truncated", name)
		}
		f.stored = d.Take(int(storedLen))
		if _, dup := frames[name]; dup {
			return nil, fmt.Errorf("image: duplicate frame %q", name)
		}
		frames[name] = f
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("image: %d trailing bytes after last frame", d.Remaining())
	}

	// decode reads one frame, whole: checksum, inflate, then its codec.
	decode := func(name string, read func(*wire.Decoder) error) error {
		f, ok := frames[name]
		if !ok {
			return fmt.Errorf("image: missing %q frame", name)
		}
		raw, err := f.open(compressed)
		if err == nil {
			d := wire.NewDecoder(raw)
			if err = read(d); err == nil && d.Remaining() != 0 {
				err = fmt.Errorf("%d trailing bytes", d.Remaining())
			}
		}
		if err != nil {
			return fmt.Errorf("image: frame %q: %w", name, err)
		}
		return nil
	}

	var meta meta
	if err := decode(frameMeta, decoding(meta.code)); err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("image: a program registry is required to read a snapshot")
	}
	if got := reg.Names(); !slices.Equal(got, meta.programs) {
		return nil, fmt.Errorf("image: registry programs %v do not match the image's %v", got, meta.programs)
	}
	meta.opts.Registry = reg
	if want := 3 + len(meta.slots); len(frames) != want {
		return nil, fmt.Errorf("image: %d frames, its metadata accounts for %d", len(frames), want)
	}

	// Verify and decode the kernel, the blocks and every component store
	// in parallel.
	snap := &boot.Snapshot{
		Image:    &core.OSImage{Machine: new(kernel.MachineImage), Slots: make([]core.SlotImage, len(meta.slots))},
		Registry: reg,
		Opts:     meta.opts,
	}
	jobs := []func() error{
		func() error { return decode(frameKernel, decoding(snap.Image.Machine.Code)) },
		func() error {
			return decode(frameBlocks, func(d *wire.Decoder) (err error) {
				snap.Disk, err = driver.DecodeImage(d)
				return err
			})
		},
	}
	for i, ep := range meta.slots {
		slot := &snap.Image.Slots[i]
		slot.EP = ep
		jobs = append(jobs, func() error {
			return decode(slotFrame(ep), decoding(func(c *wire.Codec) { codeSlot(c, slot) }))
		})
	}
	for _, err := range parallel.Map(workers, len(jobs), func(i int) error { return jobs[i]() }) {
		if err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// WriteSnapshotFile writes snap to path (atomically: temp file +
// rename).
func WriteSnapshotFile(path string, snap *boot.Snapshot, o WriteOptions) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, snap, o); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadSnapshotFile reads a snapshot image from path.
func ReadSnapshotFile(path string, reg *usr.Registry, workers int) (*boot.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f, reg, workers)
}

// encoding and decoding adapt a field list to the one-way signatures of
// the frame loops, which also carry the blocks frame's hand-paired codec.
func encoding(code func(*wire.Codec)) func(*wire.Encoder) error {
	return func(e *wire.Encoder) error {
		c := wire.Encoding(e)
		code(c)
		return c.Err()
	}
}

func decoding(code func(*wire.Codec)) func(*wire.Decoder) error {
	return func(d *wire.Decoder) error {
		c := wire.Decoding(d)
		code(c)
		return c.Err()
	}
}

// meta is the metadata frame: the boot options, the registry program
// names (validated against the reader's registry, which cannot be
// serialized) and the endpoints that have a component frame.
type meta struct {
	opts     boot.Options
	programs []string
	slots    []kernel.Endpoint
}

func metaOf(snap *boot.Snapshot) *meta {
	m := &meta{opts: snap.Opts, programs: snap.Registry.Names()}
	for _, slot := range snap.Image.Slots {
		m.slots = append(m.slots, slot.EP)
	}
	return m
}

func (m *meta) code(c *wire.Codec) {
	c.Value(&m.opts.Config)
	c.Bool(&m.opts.Heartbeats)
	wire.Slice(c, &m.programs, (*wire.Codec).Str)
	wire.Slice(c, &m.slots, wire.Int[kernel.Endpoint])
}

func slotFrame(ep kernel.Endpoint) string { return slotPrefix + strconv.Itoa(int(ep)) }

// codeSlot is one component frame: the store image, the recovery window
// statistics, the clone-resident accounting and the Forkable transient.
// The endpoint is the frame's name.
func codeSlot(c *wire.Codec, slot *core.SlotImage) {
	memlog.CodeImage(c, &slot.Store)
	c.Value(&slot.Stats)
	wire.Int(c, &slot.CloneResident)
	c.Any(&slot.Transient)
}
