package image_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/testsuite"
	"repro/internal/usr"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func suiteRegistry() *usr.Registry {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	return reg
}

// header is Magic, flags 0 and the given frame count.
func header(frames uint64) []byte {
	return binary.AppendUvarint(append([]byte(image.Magic), 0), frames)
}

// reframe rewrites the named frame of an uncompressed image through
// mutate and restores its length and checksum — what an attacker who
// can write the file, or a bug in a writer, produces: bytes the CRC
// vouches for.
func reframe(t testing.TB, data []byte, name string, mutate func(raw []byte) []byte) []byte {
	t.Helper()
	d := wire.NewDecoder(data[len(image.Magic):])
	flags, frames := d.Uvarint(), d.Uvarint()
	out := binary.AppendUvarint(header(frames)[:len(image.Magic)], flags)
	out = binary.AppendUvarint(out, frames)
	found := false
	for i := uint64(0); i < frames; i++ {
		frame := d.Str()
		d.Uvarint() // raw length
		storedLen := d.Uvarint()
		d.U32() // checksum
		stored := d.Take(int(storedLen))
		if d.Err() != nil {
			t.Fatalf("reframe: frame %d: %v", i, d.Err())
		}
		if frame == name {
			stored, found = mutate(append([]byte(nil), stored...)), true
		}
		h := wire.NewEncoder()
		h.Str(frame)
		h.Uvarint(uint64(len(stored)))
		h.Uvarint(uint64(len(stored)))
		h.U32(crc32.Checksum(stored, crc32.MakeTable(crc32.Castagnoli)))
		out = append(append(out, h.Bytes()...), stored...)
	}
	if !found {
		t.Fatalf("reframe: no frame %q", name)
	}
	return out
}

// TestHostileHeaderRejected: the frame count sizes the frame table, and
// the header that carries it has no checksum. A count the file cannot
// hold is refused before anything is allocated — 2^36 frames in a 15-byte
// file used to end the process with "fatal error: runtime: out of
// memory", which no caller can recover from.
func TestHostileHeaderRejected(t *testing.T) {
	for _, frames := range []uint64{1 << 36, 1 << 63, 1<<64 - 1, 1} {
		data := header(frames)
		if _, err := image.ReadSnapshot(bytes.NewReader(data), suiteRegistry(), 1); err == nil {
			t.Errorf("a header claiming %d frames and carrying none was accepted", frames)
		}
	}
}

// oneFrame is a compressed image holding only a meta frame, the first
// one read, with the given stored bytes and claimed raw length.
func oneFrame(stored []byte, rawLen uint64) []byte {
	h := wire.NewEncoder()
	h.Str("meta")
	h.Uvarint(rawLen)
	h.Uvarint(uint64(len(stored)))
	h.U32(crc32.Checksum(stored, crc32.MakeTable(crc32.Castagnoli)))
	out := binary.AppendUvarint(append([]byte(image.Magic), 1), 1)
	return append(append(out, h.Bytes()...), stored...)
}

// TestHostileRawLengthRejected: the checksum covers what is stored, not
// what it inflates to, and the raw length is the header's word. A frame
// that understates a deflate bomb is refused one byte past the length it
// states — the reader used to inflate all of it and compare afterwards —
// and one that overstates beyond what its stored bytes could ever inflate
// to is refused before the length sizes a buffer.
func TestHostileRawLengthRejected(t *testing.T) {
	const bombLen = 16 << 20
	var bomb bytes.Buffer
	zw, err := flate.NewWriter(&bomb, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for n := 0; n < bombLen; n += len(zeros) {
		zw.Write(zeros)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if bomb.Len()*900 > bombLen {
		t.Fatalf("the bomb is %d stored bytes for %d raw, not the ~1000x the case is about", bomb.Len(), bombLen)
	}
	reg := suiteRegistry()
	for _, c := range []struct {
		name   string
		rawLen uint64
	}{
		{"understated bomb", 1000},
		{"overstated by 2^40", bombLen + 1<<40},
		{"overstated within the ratio", bombLen + 1},
	} {
		data := oneFrame(bomb.Bytes(), c.rawLen)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := image.ReadSnapshot(bytes.NewReader(data), reg, 1)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		// The third case is the honest cost of a frame of this size, there
		// to show the measurement sees an inflation when one happens.
		spent, inflated := after.TotalAlloc-before.TotalAlloc, c.rawLen == bombLen+1
		if (spent >= bombLen/8) != inflated {
			t.Errorf("%s: reading allocated %d KiB (error: %v)", c.name, spent>>10, err)
		}
	}
}

// TestForkSurfacesHostileKernelFrame: a kernel frame whose checksum holds
// and whose scheduler state is out of range decodes, and Fork refuses it;
// unchecked, Fork returned a machine that panicked in its first dispatch.
// Likewise a container payload whose slice length is 2^63 or more, which
// used to panic the decoder inside the component factory.
func TestForkSurfacesHostileKernelFrame(t *testing.T) {
	snap := captureSnapshot(t, 7)
	data := encode(t, snap, image.WriteOptions{})
	if same := reframe(t, data, "kernel", func(raw []byte) []byte { return raw }); !bytes.Equal(same, data) {
		t.Fatal("reframe does not reproduce an untouched image")
	}

	// Kernel frame: version (1 byte), clock (8 bytes), then the
	// round-robin cursor as a one-byte varint: 0x7e is 63, past any
	// process table of the boot barrier.
	hostile := reframe(t, data, "kernel", func(raw []byte) []byte {
		if raw[9]&0x80 != 0 {
			t.Fatalf("the cursor is not a one-byte varint (%#x)", raw[9])
		}
		raw[9] = 0x7e
		return raw
	})
	decoded, err := image.ReadSnapshot(bytes.NewReader(hostile), suiteRegistry(), 1)
	if err != nil {
		t.Fatalf("the frame is well-formed and must decode: %v", err)
	}
	var report testsuite.Report
	sys, err := decoded.Fork(boot.ForkParams{Seed: 7}, testsuite.RunnerResumeFrom(&report, testsuite.Report{}))
	if err == nil {
		sys.Shutdown("test over")
		t.Fatal("Fork accepted a round-robin cursor of 63")
	}
	if !strings.Contains(err.Error(), "round-robin cursor") {
		t.Errorf("Fork error %q does not name the cursor", err)
	}

	// An endpoint allocator of 2^27: accepted, the fork's first spawn
	// grew the endpoint-indexed process table to a gigabyte.
	decoded, err = image.ReadSnapshot(bytes.NewReader(allocatorAt(t, data, 1<<27)), suiteRegistry(), 1)
	if err != nil {
		t.Fatalf("the frame is well-formed and must decode: %v", err)
	}
	if sys, err = decoded.Fork(boot.ForkParams{Seed: 7}, testsuite.RunnerResumeFrom(&report, testsuite.Report{})); err == nil {
		sys.Shutdown("test over")
		t.Fatal("Fork accepted an endpoint allocator of 2^27")
	}
	if !strings.Contains(err.Error(), "endpoint allocator") {
		t.Errorf("Fork error %q does not name the endpoint allocator", err)
	}

	// VM's frame table is a Slice[int32]: its payload is the element type
	// name, then the length.
	huge := binary.AppendUvarint(nil, 1<<63+1)
	hostile = reframe(t, data, "slot/4", func(raw []byte) []byte {
		i := bytes.Index(raw, []byte("\x05int32"))
		if i < 0 {
			t.Fatal("no int32 slice payload in VM's frame")
		}
		// The payload sits in a blob: keep the blob's length by
		// overwriting in place (the slice length and what follows).
		copy(raw[i+6:], huge)
		return raw
	})
	decoded, err = image.ReadSnapshot(bytes.NewReader(hostile), suiteRegistry(), 1)
	if err == nil {
		sys, err = decoded.Fork(boot.ForkParams{Seed: 7}, testsuite.RunnerResumeFrom(&report, testsuite.Report{}))
		if err == nil {
			sys.Shutdown("test over")
		}
	}
	if err == nil {
		t.Error("a slice length of 2^63+1 in a container payload was accepted")
	}
}

// hostileBlocks are blocks frames the disk decoder must refuse, now that
// it hands out slices of the frame instead of copies: a blob that is not
// one block long, a count the frame cannot hold, and a last block cut
// short.
func hostileBlocks() map[string][]byte {
	block := make([]byte, fs.BlockSize)
	blob := func(b []byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(b))+1), b...) }
	return map[string][]byte{
		"a block of 100 bytes":     append([]byte{2, 0}, blob(block[:100])...),
		"a block of 4097 bytes":    append([]byte{1}, blob(append(block, 0))...),
		"2^20 blocks in ten bytes": append(binary.AppendUvarint(nil, 1<<20), make([]byte, 10)...),
		"a last block cut short":   append(append([]byte{2}, blob(block)...), blob(block)[:4000]...),
	}
}

// TestHostileBlocksRejected: each of them, behind a checksum that holds.
func TestHostileBlocksRejected(t *testing.T) {
	data := encode(t, captureSnapshot(t, 7), image.WriteOptions{})
	for name, frame := range hostileBlocks() {
		hostile := reframe(t, data, "blocks", func([]byte) []byte { return frame })
		if _, err := image.ReadSnapshot(bytes.NewReader(hostile), suiteRegistry(), 1); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), `frame "blocks"`) {
			t.Errorf("%s: refused, but not by the blocks frame: %v", name, err)
		}
	}
}

// withAux returns data with one message queued on the first process
// whose Aux is an argv: a frame read at a barrier carries no Aux
// payload, and this one carries the tag []string once.
func withAux(t testing.TB, data []byte) []byte {
	t.Helper()
	return reframe(t, data, "kernel", func(raw []byte) []byte {
		img := new(kernel.MachineImage)
		d := wire.NewDecoder(raw)
		if img.Code(wire.Decoding(d)); d.Err() != nil {
			t.Fatalf("kernel frame: %v", d.Err())
		}
		inbox := wiretest.Writable(reflect.ValueOf(img).Elem().FieldByName("lives").Index(0).FieldByName("inbox"))
		inbox.Set(reflect.Append(inbox, reflect.ValueOf(kernel.Message{Type: 1, Aux: []string{"argv0"}})))
		e := wire.NewEncoder()
		c := wire.Encoding(e)
		if img.Code(c); c.Err() != nil {
			t.Fatalf("kernel frame: %v", c.Err())
		}
		return e.Bytes()
	})
}

// hostileTransients are images whose interface slots name a type the
// slot's codec does not take, every frame's checksum holding: RS's
// transient tagged as VFS's or as a type nobody has, a transient on PM,
// which has none, and a message's Aux tagged with a type other than
// []string (string was one the type registry used to take).
func hostileTransients(t testing.TB, data []byte) map[string][]byte {
	t.Helper()
	swap := func(frame string, from, to string) []byte {
		return reframe(t, data, frame, func(raw []byte) []byte {
			if !bytes.Contains(raw, []byte(from)) {
				t.Fatalf("frame %q holds no %q", frame, from)
			}
			return bytes.Replace(raw, []byte(from), []byte(to), 1)
		})
	}
	aux := withAux(t, data)
	return map[string][]byte{
		"RS's transient tagged as VFS's":    swap("slot/2", "\x0crs.forkState", "\x0dvfs.forkState"),
		"RS's transient of an unknown type": swap("slot/2", "\x0crs.forkState", "\x0crs.forkStatX"),
		"a transient on PM": reframe(t, data, "slot/3", func(raw []byte) []byte {
			return append(raw[:len(raw)-1], "\x0dvfs.forkState\x02"...)
		}),
		"an Aux tagged string": reframe(t, aux, "kernel", func(raw []byte) []byte {
			return bytes.Replace(raw, []byte("\x08[]string\x02\x05argv0"), []byte("\x06string\x05argv0"), 1)
		}),
	}
}

// TestHostileTransientsRejected: each of them is an error of
// ReadSnapshot, and the image with the well-tagged Aux reads.
func TestHostileTransientsRejected(t *testing.T) {
	data := encode(t, captureSnapshot(t, 7), image.WriteOptions{})
	if _, err := image.ReadSnapshot(bytes.NewReader(withAux(t, data)), suiteRegistry(), 1); err != nil {
		t.Fatalf("an argv in Aux: %v", err)
	}
	for name, hostile := range hostileTransients(t, data) {
		_, err := image.ReadSnapshot(bytes.NewReader(hostile), suiteRegistry(), 1)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "type tag") {
			t.Errorf("%s: refused, but not by its tag: %v", name, err)
		}
	}
}

// allocatorAt rewrites the endpoint allocator in data's kernel frame to
// ep: it follows the version, the clock and the round-robin cursor.
func allocatorAt(t testing.TB, data []byte, ep int64) []byte {
	t.Helper()
	return reframe(t, data, "kernel", func(raw []byte) []byte {
		d := wire.NewDecoder(raw)
		d.Uvarint()
		d.Take(8)
		d.Varint()
		at := len(raw) - d.Remaining()
		d.Varint()
		if d.Err() != nil {
			t.Fatalf("kernel frame: %v", d.Err())
		}
		return append(append(raw[:at:at], binary.AppendVarint(nil, ep)...), raw[len(raw)-d.Remaining():]...)
	})
}

// retiredSlot rewrites the slot after the configuration in data's meta
// frame, which every image holds zero in, to v.
func retiredSlot(t testing.TB, data []byte, v int64) []byte {
	t.Helper()
	return reframe(t, data, "meta", func(raw []byte) []byte {
		var cfg core.Config
		d := wire.NewDecoder(raw)
		if cfg.Code(wire.Decoding(d)); d.Err() != nil {
			t.Fatalf("meta frame: %v", d.Err())
		}
		at := len(raw) - d.Remaining()
		if raw[at] != 0 {
			t.Fatalf("the retired slot holds %#x", raw[at])
		}
		return append(append(raw[:at:at], binary.AppendVarint(nil, v)...), raw[at+1:]...)
	})
}

// TestHostileRetiredSlotRejected: a meta frame whose retired slot holds
// anything but zero — the 256 MiB an older writer could put there — is
// refused by the meta frame, its checksum holding.
func TestHostileRetiredSlotRejected(t *testing.T) {
	data := encode(t, captureSnapshot(t, 7), image.WriteOptions{})
	_, err := image.ReadSnapshot(bytes.NewReader(retiredSlot(t, data, 256<<20)), suiteRegistry(), 1)
	if err == nil {
		t.Fatal("a nonzero retired slot was accepted")
	}
	if !strings.Contains(err.Error(), `frame "meta"`) {
		t.Errorf("refused, but not by the meta frame: %v", err)
	}
}

// withConfig rewrites the configuration in data's meta frame through
// edit, leaving the rest of the frame as it was.
func withConfig(t testing.TB, data []byte, edit func(*core.Config)) []byte {
	t.Helper()
	return reframe(t, data, "meta", func(raw []byte) []byte {
		var cfg core.Config
		d := wire.NewDecoder(raw)
		if cfg.Code(wire.Decoding(d)); d.Err() != nil {
			t.Fatalf("meta frame: %v", d.Err())
		}
		edit(&cfg)
		e := wire.NewEncoder()
		c := wire.Encoding(e)
		if cfg.Code(c); c.Err() != nil {
			t.Fatalf("meta frame: %v", c.Err())
		}
		return append(e.Bytes(), raw[len(raw)-d.Remaining():]...)
	})
}

// negativeDrop is a configuration core.NewOS refuses: a drop rate below
// zero.
func negativeDrop(cfg *core.Config) { cfg.IPCFaults.DropBP = -5 }

// TestHostileConfigRejected: a meta frame whose configuration no machine
// can boot is refused by the meta frame, its checksum holding. It used to
// read, and Fork panicked in core.NewOS.
func TestHostileConfigRejected(t *testing.T) {
	data := withConfig(t, encode(t, captureSnapshot(t, 7), image.WriteOptions{}), negativeDrop)
	_, err := image.ReadSnapshot(bytes.NewReader(data), suiteRegistry(), 1)
	if err == nil {
		t.Fatal("a configuration core.NewOS refuses was accepted")
	}
	if !strings.Contains(err.Error(), `frame "meta"`) || !strings.Contains(err.Error(), "DropBP") {
		t.Errorf("refused, but not by the meta frame's configuration: %v", err)
	}
}

// reliableConfig turns the transport plane on.
func reliableConfig(cfg *core.Config) { cfg.IPCPlane = true }

// withPlane rewrites data's kernel frame to say it carries a transport
// plane: its presence byte comes just before the last field, the 8-byte
// earliest IPC event.
func withPlane(t testing.TB, data []byte) []byte {
	t.Helper()
	return reframe(t, data, "kernel", func(raw []byte) []byte {
		if raw[len(raw)-9] != 0 {
			t.Fatalf("kernel frame's plane byte is %#x", raw[len(raw)-9])
		}
		raw[len(raw)-9] = 1
		return raw
	})
}

// TestImageRefusesTransportPlane: images carry no transport plane. A
// rung with the reliable transport on does not write, and writes no
// byte; a kernel frame whose plane byte is set is refused; and a meta
// frame whose configuration turns the plane on reads but forks nothing,
// since its kernel frame holds no plane to stamp.
func TestImageRefusesTransportPlane(t *testing.T) {
	opts := suiteOpts(7)
	reliableConfig(&opts.Config)
	var out bytes.Buffer
	err := image.WriteSnapshot(&out, rungSnapshot(t, opts, 3), image.WriteOptions{})
	if err == nil || !strings.Contains(err.Error(), `frame "kernel"`) || !strings.Contains(err.Error(), "transport plane") {
		t.Errorf("writing the reliable-transport rung: error %v, want the kernel frame's refusal", err)
	}
	if out.Len() != 0 {
		t.Errorf("the refused write wrote %d bytes", out.Len())
	}

	raw := encode(t, captureSnapshot(t, 7), image.WriteOptions{})
	_, err = image.ReadSnapshot(bytes.NewReader(withPlane(t, raw)), suiteRegistry(), 1)
	if err == nil || !strings.Contains(err.Error(), `frame "kernel"`) || !strings.Contains(err.Error(), "transport plane") {
		t.Errorf("reading a kernel frame with its plane byte set: error %v, want the kernel frame's refusal", err)
	}

	snap, err := image.ReadSnapshot(bytes.NewReader(withConfig(t, raw, reliableConfig)), suiteRegistry(), 1)
	if err != nil {
		t.Fatalf("a meta frame with the plane on: %v", err)
	}
	var report testsuite.Report
	sys, err := snap.Fork(boot.ForkParams{Seed: 7}, testsuite.RunnerResumeFrom(&report, testsuite.Report{}))
	if err == nil {
		sys.Shutdown("forked")
		t.Fatal("a configuration with the plane on forked from an image without one")
	}
	if !strings.Contains(err.Error(), "IPC plane") {
		t.Errorf("the fork was refused, but not for its plane: %v", err)
	}
}

// withFlags rewrites data's header flags to v.
func withFlags(data []byte, v uint64) []byte {
	at := len(image.Magic)
	return append(binary.AppendUvarint(append([]byte(nil), data[:at]...), v), data[at+1:]...)
}

// swappedFrames puts data's frames i and j, headers and all, in each
// other's place.
func swappedFrames(t testing.TB, data []byte, i, j int) []byte {
	t.Helper()
	d := wire.NewDecoder(data[len(image.Magic):])
	d.Uvarint()
	frames := make([][]byte, d.Uvarint())
	at := len(data) - d.Remaining()
	head := data[:at]
	for k := range frames {
		d.Str()
		d.Uvarint()
		d.Take(int(d.Uvarint()) + 4) // the checksum, then the stored bytes
		if d.Err() != nil {
			t.Fatalf("frame %d: %v", k, d.Err())
		}
		frames[k], at = data[at:len(data)-d.Remaining()], len(data)-d.Remaining()
	}
	frames[i], frames[j] = frames[j], frames[i]
	return bytes.Join(append([][]byte{head}, frames...), nil)
}

// repeatedSlot rewrites the slot list that ends data's meta frame, n
// endpoints of one byte each, so that its last endpoint repeats the one
// before: every frame is still there, and the last one no slot reads.
func repeatedSlot(t testing.TB, data []byte, n int) []byte {
	t.Helper()
	return reframe(t, data, "meta", func(raw []byte) []byte {
		list := raw[len(raw)-n-1:]
		if int(list[0]) != n {
			t.Fatalf("the meta frame ends in %x, not a list of %d slots", list, n)
		}
		list[n] = list[n-1]
		return raw
	})
}

// hostileContainers are images whose every frame holds, but whose
// container is in a form WriteSnapshot never writes: header flags with
// an undefined bit or past a byte (once masked to the compressed bit),
// frames out of their place (once read into a map by name), and a slot
// list that repeats an endpoint (once read twice from one frame).
func hostileContainers(t testing.TB, raw []byte, slots int) map[string][]byte {
	t.Helper()
	return map[string][]byte{
		"flag bit 1":             withFlags(raw, 2),
		"flags 256":              withFlags(raw, 256),
		"kernel and blocks swap": swappedFrames(t, raw, 1, 2),
		"two slot frames swap":   swappedFrames(t, raw, 3, 4),
		"meta not first":         swappedFrames(t, raw, 0, 1),
		"slot endpoint repeats":  repeatedSlot(t, raw, slots),
	}
}

// TestHostileContainerRejected: an image is read only in the form
// WriteSnapshot writes it, so that one that reads writes back to the
// bytes it was read from.
func TestHostileContainerRejected(t *testing.T) {
	snap := captureSnapshot(t, 7)
	raw := encode(t, snap, image.WriteOptions{})
	if _, err := image.ReadSnapshot(bytes.NewReader(raw), suiteRegistry(), 1); err != nil {
		t.Fatal(err)
	}
	for name, data := range hostileContainers(t, raw, len(snap.Image.Slots)) {
		if _, err := image.ReadSnapshot(bytes.NewReader(data), suiteRegistry(), 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadSnapshot: any byte string reads as a snapshot or as an error,
// a raw (uncompressed) input that reads writes back to exactly its bytes,
// and a snapshot that read forks or refuses to — never a panic, never an
// allocation the input's size does not bound.
func FuzzReadSnapshot(f *testing.F) {
	snap := captureSnapshot(f, 5)
	raw := encode(f, snap, image.WriteOptions{})
	flate := encode(f, snap, image.WriteOptions{Compress: true})
	f.Add(raw)
	f.Add(flate)
	// TestCorruptionRejected's flips and cuts, on the small image at its
	// strides and on the large one sparsely.
	for _, img := range []struct {
		data      []byte
		flip, cut int
	}{{flate, 997, 1009}, {raw, 997 * 256, 1009 * 256}} {
		for off := 0; off < len(img.data); off += img.flip {
			mut := append([]byte(nil), img.data...)
			mut[off] ^= 0x40
			f.Add(mut)
		}
		for cut := 0; cut < len(img.data); cut += img.cut {
			f.Add(img.data[:cut])
		}
	}
	// The crashers of the tests above.
	for _, frames := range []uint64{1 << 36, 1 << 63, 1<<64 - 1} {
		f.Add(header(frames))
	}
	f.Add(oneFrame([]byte{0x03, 0x00}, 1<<40))
	f.Add(reframe(f, raw, "kernel", func(b []byte) []byte { b[9] = 0x7e; return b }))
	f.Add(reframe(f, raw, "slot/4", func(b []byte) []byte {
		copy(b[bytes.Index(b, []byte("\x05int32"))+6:], binary.AppendUvarint(nil, 1<<63+1))
		return b
	}))
	for _, frame := range hostileBlocks() {
		f.Add(reframe(f, raw, "blocks", func([]byte) []byte { return frame }))
	}
	for _, hostile := range hostileTransients(f, raw) {
		f.Add(hostile)
	}
	f.Add(retiredSlot(f, raw, 256<<20))
	f.Add(withConfig(f, raw, negativeDrop))
	f.Add(allocatorAt(f, raw, 1<<27))
	f.Add(withPlane(f, raw))
	for _, hostile := range hostileContainers(f, raw, len(snap.Image.Slots)) {
		f.Add(hostile)
	}
	reg := suiteRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := image.ReadSnapshot(bytes.NewReader(data), reg, 1)
		if err != nil {
			return
		}
		if data[len(image.Magic)] == 0 {
			var again bytes.Buffer
			if err := image.WriteSnapshot(&again, snap, image.WriteOptions{Workers: 1}); err != nil {
				t.Fatalf("a snapshot that read does not write: %v", err)
			}
			if !bytes.Equal(again.Bytes(), data) {
				t.Fatalf("a raw image of %d bytes writes back as %d other bytes", len(data), again.Len())
			}
		}
		var report testsuite.Report
		if sys, err := snap.Fork(boot.ForkParams{Seed: 5}, testsuite.RunnerResumeFrom(&report, testsuite.Report{})); err == nil {
			sys.Shutdown("fuzz")
		}
	})
}
