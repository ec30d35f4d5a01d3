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
	"sort"
	"strconv"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/parallel"
	"repro/internal/seep"
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
	img, disk, opts := snap.Parts()
	slots := img.Slots()

	type job struct {
		name  string
		build func(e *wire.Encoder) error
	}
	jobs := []job{
		{frameMeta, func(e *wire.Encoder) error {
			return encodeMeta(e, opts, snap.Registry(), slots)
		}},
		{frameKernel, func(e *wire.Encoder) error {
			return img.Machine().EncodeTo(e)
		}},
		{frameBlocks, func(e *wire.Encoder) error {
			disk.EncodeTo(e)
			return nil
		}},
	}
	for i := range slots {
		sp := slots[i]
		jobs = append(jobs, job{slotPrefix + strconv.Itoa(int(sp.EP)), func(e *wire.Encoder) error {
			return encodeSlot(e, sp)
		}})
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
	name   string
	rawLen int
	stored []byte
	crc    uint32
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
	flags := byte(d.Uvarint())
	nFrames := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, err
	}
	compressed := flags&flagCompressed != 0

	frames := make([]storedFrame, 0, nFrames)
	for i := 0; i < nFrames; i++ {
		var f storedFrame
		f.name = d.Str()
		f.rawLen = int(d.Uvarint())
		storedLen := d.Uvarint()
		f.crc = d.U32()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("image: frame %d header: %w", i, err)
		}
		f.stored = d.Take(int(storedLen))
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("image: frame %q truncated", f.name)
		}
		frames = append(frames, f)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("image: %d trailing bytes after last frame", d.Remaining())
	}

	// Verify checksums and decompress in parallel.
	type rawFrame struct {
		name string
		raw  []byte
		err  error
	}
	raws := parallel.Map(workers, len(frames), func(i int) rawFrame {
		f := frames[i]
		if got := crc32.Checksum(f.stored, crcTable); got != f.crc {
			return rawFrame{name: f.name, err: fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", f.crc, got)}
		}
		raw := f.stored
		if compressed {
			out, err := io.ReadAll(flate.NewReader(bytes.NewReader(f.stored)))
			if err != nil {
				return rawFrame{name: f.name, err: err}
			}
			raw = out
		}
		if len(raw) != f.rawLen {
			return rawFrame{name: f.name, err: fmt.Errorf("raw length %d, header says %d", len(raw), f.rawLen)}
		}
		return rawFrame{name: f.name, raw: raw}
	})
	byName := make(map[string][]byte, len(raws))
	for _, rf := range raws {
		if rf.err != nil {
			return nil, fmt.Errorf("image: frame %q: %w", rf.name, rf.err)
		}
		if _, dup := byName[rf.name]; dup {
			return nil, fmt.Errorf("image: duplicate frame %q", rf.name)
		}
		byName[rf.name] = rf.raw
	}

	metaRaw, ok := byName[frameMeta]
	if !ok {
		return nil, fmt.Errorf("image: missing %q frame", frameMeta)
	}
	opts, progNames, slotEPs, err := decodeMeta(wire.NewDecoder(metaRaw))
	if err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("image: a program registry is required to read a snapshot")
	}
	if got := reg.Names(); !equalStrings(got, progNames) {
		return nil, fmt.Errorf("image: registry programs %v do not match the image's %v", got, progNames)
	}
	opts.Registry = reg

	kernelRaw, ok := byName[frameKernel]
	if !ok {
		return nil, fmt.Errorf("image: missing %q frame", frameKernel)
	}
	blocksRaw, ok := byName[frameBlocks]
	if !ok {
		return nil, fmt.Errorf("image: missing %q frame", frameBlocks)
	}

	// Decode the kernel, blocks, and every component store in parallel.
	type decoded struct {
		machine *kernel.MachineImage
		disk    *driver.Image
		slot    *core.SlotParts
		err     error
	}
	decJobs := make([]func() decoded, 0, len(slotEPs)+2)
	decJobs = append(decJobs, func() decoded {
		m, err := kernel.DecodeMachineImage(wire.NewDecoder(kernelRaw))
		return decoded{machine: m, err: err}
	})
	decJobs = append(decJobs, func() decoded {
		disk, err := driver.DecodeImage(wire.NewDecoder(blocksRaw))
		return decoded{disk: disk, err: err}
	})
	for _, ep := range slotEPs {
		raw, ok := byName[slotPrefix+strconv.Itoa(int(ep))]
		if !ok {
			return nil, fmt.Errorf("image: missing frame for component endpoint %d", ep)
		}
		ep := ep
		decJobs = append(decJobs, func() decoded {
			sp, err := decodeSlot(wire.NewDecoder(raw), ep)
			return decoded{slot: sp, err: err}
		})
	}
	results := parallel.Map(workers, len(decJobs), func(i int) decoded { return decJobs[i]() })

	var machine *kernel.MachineImage
	var disk *driver.Image
	slots := make([]core.SlotParts, 0, len(slotEPs))
	for _, res := range results {
		switch {
		case res.err != nil:
			return nil, fmt.Errorf("image: %w", res.err)
		case res.machine != nil:
			machine = res.machine
		case res.slot != nil:
			slots = append(slots, *res.slot)
		default:
			disk = res.disk
		}
	}
	img := core.AssembleImage(machine, slots)
	return boot.NewSnapshotFromParts(img, disk, reg, opts), nil
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

// encodeMeta writes the boot options, the registry program names and
// the component endpoint list.
func encodeMeta(e *wire.Encoder, opts boot.Options, reg *usr.Registry, slots []core.SlotParts) error {
	if err := e.Encode(opts.Config); err != nil {
		return err
	}
	e.Bool(opts.Heartbeats)
	names := reg.Names()
	e.Uvarint(uint64(len(names)))
	for _, n := range names {
		e.Str(n)
	}
	e.Uvarint(uint64(len(slots)))
	for _, sp := range slots {
		e.Varint(int64(sp.EP))
	}
	return nil
}

func decodeMeta(d *wire.Decoder) (boot.Options, []string, []kernel.Endpoint, error) {
	var opts boot.Options
	if err := d.Decode(&opts.Config); err != nil {
		return opts, nil, nil, fmt.Errorf("image: meta config: %w", err)
	}
	opts.Heartbeats = d.Bool()
	var names []string
	for i, n := 0, int(d.Uvarint()); i < n && d.Err() == nil; i++ {
		names = append(names, d.Str())
	}
	var eps []kernel.Endpoint
	for i, n := 0, int(d.Uvarint()); i < n && d.Err() == nil; i++ {
		eps = append(eps, kernel.Endpoint(d.Varint()))
	}
	if err := d.Err(); err != nil {
		return opts, nil, nil, fmt.Errorf("image: meta frame: %w", err)
	}
	return opts, names, eps, nil
}

// encodeSlot writes one component frame: the store image, the recovery
// window statistics, the clone-resident accounting and the Forkable
// transient.
func encodeSlot(e *wire.Encoder, sp core.SlotParts) error {
	if err := sp.Store.EncodeImage(e); err != nil {
		return err
	}
	if err := e.Encode(sp.Stats); err != nil {
		return err
	}
	e.Varint(int64(sp.CloneResident))
	return e.Any(sp.Transient)
}

func decodeSlot(d *wire.Decoder, ep kernel.Endpoint) (*core.SlotParts, error) {
	store, err := memlog.DecodeStoreImage(d)
	if err != nil {
		return nil, fmt.Errorf("component %d store: %w", ep, err)
	}
	var stats seep.Stats
	if err := d.Decode(&stats); err != nil {
		return nil, fmt.Errorf("component %d stats: %w", ep, err)
	}
	cloneResident := int(d.Varint())
	transient, err := d.Any()
	if err != nil {
		return nil, fmt.Errorf("component %d transient: %w", ep, err)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("component %d frame: %w", ep, err)
	}
	if rem := d.Remaining(); rem != 0 {
		return nil, fmt.Errorf("component %d frame has %d trailing bytes", ep, rem)
	}
	return &core.SlotParts{
		EP:            ep,
		Store:         store,
		Stats:         stats,
		CloneResident: cloneResident,
		Transient:     transient,
	}, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if !sort.StringsAreSorted(a) || !sort.StringsAreSorted(b) {
		a, b = append([]string(nil), a...), append([]string(nil), b...)
		sort.Strings(a)
		sort.Strings(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
