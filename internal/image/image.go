// Package image is the on-disk form of a warm-boot snapshot
// (boot.Snapshot / core.OSImage): a container of independent frames —
// one for the kernel machine image, one per captured component, one for
// the disk blocks, one for the boot metadata — each with its own length
// and CRC32-C checksum header and optional flate compression. Frames
// are independent, so encode and decode may fan out across cores
// (internal/parallel) and the bytes do not depend on how; the blocks
// frame is nine tenths of them, so there is little to fan out, and the
// benchmark runs both directions on one worker.
//
// A round trip costs about what its bytes cost. Writing, every small
// frame is encoded into a buffer of its own, and the blocks frame into
// none: its blocks go from the device pages to the destination (through
// the checksum first) or into the compressor. The destination is told
// the file's size first if it can be (Grow). Reading, the file is read
// into one buffer of its size when the reader knows it, and the decoded
// disk's blocks are slices of that buffer (of the inflated frame, for a
// compressed image), which the snapshot therefore keeps: a decoded
// snapshot is as immutable as a captured one. DESIGN.md §8 has the
// budget.
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

// spareDeflater and spareInflater keep one of compress/flate's working
// states each — a Writer is 650 KB of tables, and eight of them built
// afresh were half of a compressed write's allocation — for the next
// frame and the next call. Reset makes a used one equivalent to a new
// one, so the bytes are the same. They are free lists of one and not
// sync.Pools because a pool forgets: with a collection or two between one
// compressed image and the next, every image built its writer again.
// Concurrent frames beyond the first build their own and drop it.
// Host-side scratch: nothing here is simulated state or any snapshot's.
var (
	spareDeflater = make(chan *deflater, 1)
	spareInflater = make(chan io.Reader, 1)
)

// deflater is a compressor and the buffer it writes to, which finds its
// size once and keeps it.
type deflater struct {
	fw  *flate.Writer
	out bytes.Buffer
}

// deflate returns what write writes, compressed, in a slice of its own.
func deflate(write func(io.Writer) error) ([]byte, error) {
	var z *deflater
	select {
	case z = <-spareDeflater:
	default:
		fw, err := flate.NewWriter(nil, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
		z = &deflater{fw: fw}
	}
	z.out.Reset()
	z.fw.Reset(&z.out)
	if err := write(z.fw); err != nil {
		return nil, err
	}
	if err := z.fw.Close(); err != nil {
		return nil, err
	}
	stored := bytes.Clone(z.out.Bytes())
	select {
	case spareDeflater <- z:
	default:
	}
	return stored, nil
}

// inflate fills raw from the deflate stream stored, which must end exactly
// there.
func inflate(raw, stored []byte) error {
	var zr io.Reader
	select {
	case zr = <-spareInflater:
	default:
		zr = flate.NewReader(nil)
	}
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(stored), nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(zr, raw); err != nil {
		return fmt.Errorf("inflating the %d raw bytes the header says: %w", len(raw), err)
	}
	var past [1]byte
	n, err := io.ReadFull(zr, past[:])
	select {
	case spareInflater <- zr:
	default:
	}
	switch {
	case n != 0:
		return fmt.Errorf("inflates past the %d raw bytes the header says", len(raw))
	case err != io.EOF:
		return err
	}
	return nil
}

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

// payload is a frame's bytes: encoded into a buffer of the frame's own,
// or the disk, whose blocks go from their device pages to the writer and
// are never gathered into one buffer.
type payload struct {
	buf  []byte
	disk *driver.Image
}

func (p payload) len() int {
	if p.disk != nil {
		return int(p.disk.EncodedLen())
	}
	return len(p.buf)
}

func (p payload) writeTo(w io.Writer) error {
	if p.disk != nil {
		_, err := p.disk.WriteTo(w)
		return err
	}
	_, err := w.Write(p.buf)
	return err
}

func (p payload) crc() (uint32, error) {
	if p.disk == nil {
		return crc32.Checksum(p.buf, crcTable), nil
	}
	h := crc32.New(crcTable)
	err := p.writeTo(h)
	return h.Sum32(), err
}

// encodedFrame is one finished frame: the raw payload length, the
// stored (possibly compressed) payload, its length and its checksum.
type encodedFrame struct {
	name              string
	rawLen, storedLen int
	stored            payload
	crc               uint32
	err               error
}

// WriteSnapshot encodes snap into w. Frames are encoded (and, when
// requested, compressed) in parallel, then written sequentially, so w
// receives a deterministic byte stream regardless of worker count. The
// disk's blocks are not gathered into a frame buffer: in a raw image
// they are read from the device pages twice, once for the frame's
// checksum and once into w, and in a compressed one they stream into
// the compressor. w therefore receives a few small writes a written
// block (its head, its prefix, its zero padding): wrap a file in a
// bufio.Writer.
func WriteSnapshot(w io.Writer, snap *boot.Snapshot, o WriteOptions) error {
	type job struct {
		name  string
		build func(e *wire.Encoder) error // nil: the blocks frame
	}
	meta := metaOf(snap)
	jobs := []job{
		{frameMeta, encoding(meta.code)},
		{frameKernel, encoding(snap.Image.Machine.Code)},
		{frameBlocks, nil},
	}
	for i := range snap.Image.Slots {
		slot := &snap.Image.Slots[i]
		jobs = append(jobs, job{slotFrame(slot.EP), encoding(func(c *wire.Codec) { codeSlot(c, slot) })})
	}

	frames := parallel.Map(o.Workers, len(jobs), func(i int) encodedFrame {
		f := encodedFrame{name: jobs[i].name}
		p := payload{disk: snap.Disk}
		if build := jobs[i].build; build != nil {
			e := wire.NewEncoder()
			if f.err = build(e); f.err != nil {
				return f
			}
			p = payload{buf: e.Bytes()}
		}
		f.rawLen = p.len()
		f.storedLen = f.rawLen
		if o.Compress {
			stored, err := deflate(p.writeTo)
			if f.err = err; err != nil {
				return f
			}
			p, f.storedLen = payload{buf: stored}, len(stored)
		}
		f.stored = p
		f.crc, f.err = p.crc()
		return f
	})
	for _, f := range frames {
		if f.err != nil {
			return fmt.Errorf("image: frame %q: %w", f.name, f.err)
		}
	}

	// The file header and every frame's, back to back in one buffer and
	// cut apart again as they are written: with them the size of the file
	// is known before its first byte goes out.
	heads := wire.NewEncoder()
	var flags byte
	if o.Compress {
		flags |= flagCompressed
	}
	heads.Uvarint(uint64(flags))
	heads.Uvarint(uint64(len(frames)))
	cuts := make([]int, 0, 1+len(frames))
	cuts = append(cuts, heads.Len())
	size := len(Magic)
	for _, f := range frames {
		heads.Str(f.name)
		heads.Uvarint(uint64(f.rawLen))
		heads.Uvarint(uint64(f.storedLen))
		heads.U32(f.crc)
		cuts = append(cuts, heads.Len())
		size += f.storedLen
	}
	size += heads.Len()
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(size) // a bytes.Buffer: one allocation instead of a doubling a frame
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	if _, err := w.Write(heads.Bytes()[:cuts[0]]); err != nil {
		return err
	}
	for i, f := range frames {
		if _, err := w.Write(heads.Bytes()[cuts[i]:cuts[i+1]]); err != nil {
			return err
		}
		if err := f.stored.writeTo(w); err != nil {
			return err
		}
	}
	return nil
}

// storedFrame is one parsed-but-not-decoded frame.
type storedFrame struct {
	name   string
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
	if err := inflate(raw, f.stored); err != nil {
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
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data, reg, workers)
}

// readAll is io.ReadAll into one buffer of the right size when r says how
// much it has left (a bytes.Reader, a bytes.Buffer, a strings.Reader).
func readAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	data := make([]byte, sized.Len())
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	// A reader that had more than it said is read to its end all the same:
	// trailing bytes are the decoder's to refuse.
	var more [1]byte
	if n, _ := r.Read(more[:]); n > 0 {
		rest, err := io.ReadAll(r)
		return append(append(data, more[0]), rest...), err
	}
	return data, nil
}

// decodeSnapshot decodes the image file data, which the snapshot keeps:
// the blocks of its disk are slices of it.
func decodeSnapshot(data []byte, reg *usr.Registry, workers int) (*boot.Snapshot, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("image: bad magic (not a snapshot image)")
	}
	d := wire.NewDecoder(data[len(Magic):])
	flags := d.Uvarint()
	nFrames := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if flags&^flagCompressed != 0 {
		return nil, fmt.Errorf("image: header flags %#x, only %#x is defined", flags, flagCompressed)
	}
	compressed := flags == flagCompressed
	// The header carries no checksum, so the count is checked against the
	// bytes that follow before it sizes anything: the shortest frame
	// header is an empty name, two lengths and the CRC.
	const minFrameHeader = 1 + 1 + 1 + 4
	if nFrames > uint64(d.Remaining())/minFrameHeader {
		return nil, fmt.Errorf("image: header claims %d frames in %d bytes", nFrames, d.Remaining())
	}
	frames := make([]storedFrame, nFrames)
	for i := range frames {
		f := &frames[i]
		f.name = d.Str()
		f.rawLen = d.Uvarint()
		storedLen := d.Uvarint()
		f.crc = d.U32()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("image: frame %d header: %w", i, err)
		}
		if storedLen > uint64(d.Remaining()) {
			return nil, fmt.Errorf("image: frame %q truncated", f.name)
		}
		f.stored = d.Take(int(storedLen))
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("image: %d trailing bytes after last frame", d.Remaining())
	}

	// decode reads frame i, whole: checksum, inflate, then its codec. The
	// frames stand in the order WriteSnapshot writes them — metadata,
	// kernel, blocks, then one per slot of the metadata, in its order —
	// and a frame out of its place is refused.
	decode := func(i int, name string, read func(*wire.Decoder) error) error {
		if i >= len(frames) || frames[i].name != name {
			return fmt.Errorf("image: frame %d is not the %q frame", i, name)
		}
		raw, err := frames[i].open(compressed)
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
	if err := decode(0, frameMeta, decoding(meta.code)); err != nil {
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
		func() error { return decode(1, frameKernel, decoding(snap.Image.Machine.Code)) },
		func() error {
			return decode(2, frameBlocks, func(d *wire.Decoder) (err error) {
				snap.Disk, err = driver.DecodeImage(d)
				return err
			})
		},
	}
	for i, ep := range meta.slots {
		slot := &snap.Image.Slots[i]
		slot.EP = ep
		jobs = append(jobs, func() error {
			return decode(3+i, slotFrame(ep), decoding(func(c *wire.Codec) { codeSlot(c, slot) }))
		})
	}
	for _, err := range parallel.Map(workers, len(jobs), func(i int) error { return jobs[i]() }) {
		if err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// encoding and decoding adapt a field list to the one-way signatures of
// the frame loops; the read loop also carries the blocks frame's
// hand-written decoder.
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
	m.opts.Config.Code(c)
	// A configuration core.NewOS refuses would read here and panic in
	// Fork: it is refused as the frame is read.
	if c.Decoding() && c.Err() == nil {
		if err := m.opts.Config.Validate(); err != nil {
			c.Fail(err)
		}
	}
	// Format v1 has a slot here that every image holds zero in: the
	// configuration once ended with a campaign setting no machine read.
	var retired int64
	wire.Int(c, &retired)
	if retired != 0 {
		c.Fail(fmt.Errorf("retired configuration slot holds %d, want 0", retired))
	}
	c.Bool(&m.opts.Heartbeats)
	wire.Slice(c, &m.programs, (*wire.Codec).Str)
	wire.Slice(c, &m.slots, wire.Int[kernel.Endpoint])
	// Slots stand in ascending endpoint order, each once, as core writes
	// them: a repeated endpoint would leave a frame no slot reads.
	for i := 1; i < len(m.slots) && c.Decoding(); i++ {
		if m.slots[i] <= m.slots[i-1] {
			c.Fail(fmt.Errorf("slot endpoint %d repeats or is out of order", m.slots[i]))
			return
		}
	}
}

func slotFrame(ep kernel.Endpoint) string { return slotPrefix + strconv.Itoa(int(ep)) }

// codeSlot is one component frame: the store image, the recovery window
// statistics, the clone-resident accounting and the Forkable transient.
// The endpoint is the frame's name, and it chooses the transient's coder.
func codeSlot(c *wire.Codec, slot *core.SlotImage) {
	memlog.CodeImage(c, &slot.Store)
	slot.Stats.Code(c)
	wire.Int(c, &slot.CloneResident)
	boot.TransientCoder(slot.EP)(c, &slot.Transient)
}
