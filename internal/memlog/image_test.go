package memlog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// registerTestContainers is the "component factory" of the image tests:
// the same registration sequence materializes a decoded store.
func registerTestContainers(s *Store) (*Cell[int64], *Map[string, string], *Slice[int32]) {
	c := NewCell(s, "t.cell", int64(7))
	m := NewMap[string, string](s, "t.map")
	sl := NewSlice[int32](s, "t.slice")
	return c, m, sl
}

// buildStore assembles a store with realistic history: mutations,
// checkpoints, deletions, and an empty undo log at the end.
func buildStore(t testing.TB, mode Instrumentation) *Store {
	t.Helper()
	s := NewStore("img-test", mode)
	s.SetLogging(true)
	c, m, sl := registerTestContainers(s)
	s.Checkpoint()
	c.Set(42)
	m.Set("alpha", "a")
	m.Set("beta", "b")
	m.Set("gamma", "c")
	m.Delete("beta")
	for i := int32(0); i < 10; i++ {
		sl.Append(i * 3)
	}
	sl.Set(4, -1)
	s.Checkpoint()
	m.Set("delta", "d")
	s.BaseBytes()
	c.Set(43)
	s.DiscardLog()
	return s
}

// encodeStore and decodeStore are the two directions of CodeImage.
func encodeStore(s *Store) ([]byte, error) {
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	CodeImage(c, &s)
	return e.Bytes(), c.Err()
}

func decodeStore(d *wire.Decoder) (*Store, error) {
	var s *Store
	c := wire.Decoding(d)
	CodeImage(c, &s)
	return s, c.Err()
}

func encodeImage(t *testing.T, s *Store) []byte {
	t.Helper()
	img, err := encodeStore(s)
	if err != nil {
		t.Fatalf("CodeImage: %v", err)
	}
	return img
}

// decodeAndMaterialize runs the full two-phase decode.
func decodeAndMaterialize(t *testing.T, img []byte) *Store {
	t.Helper()
	d := wire.NewDecoder(img)
	s, err := decodeStore(d)
	if err != nil {
		t.Fatalf("CodeImage: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("trailing bytes after store image: %d", d.Remaining())
	}
	registerTestContainers(s)
	if err := s.FinishDecode(); err != nil {
		t.Fatalf("FinishDecode: %v", err)
	}
	return s
}

func TestStoreImageRoundTrip(t *testing.T) {
	for _, mode := range []Instrumentation{Baseline, Unoptimized, Optimized, FullCopy} {
		src := buildStore(t, mode)
		img := encodeImage(t, src)
		dec := decodeAndMaterialize(t, img)
		// decode∘encode ≡ identity: re-encoding the decoded store must
		// reproduce the image byte for byte.
		img2 := encodeImage(t, dec)
		if !bytes.Equal(img, img2) {
			t.Fatalf("mode %d: encode(decode(encode(S))) differs from encode(S)", mode)
		}
		// And the image must equal the one an in-memory ForkClone
		// produces — the decoded store is indistinguishable from a fork.
		fc := encodeImage(t, src.ForkClone())
		if !bytes.Equal(img, fc) {
			t.Fatalf("mode %d: decoded image differs from ForkClone image", mode)
		}
	}
}

// TestStoreImageFullCopyBehavior drives a decoded FullCopy store and a
// ForkClone of the original through the same checkpoint/rollback
// sequence and requires identical final images. The sequence ends by
// closing the window: an image requires a quiescent store.
func TestStoreImageFullCopyBehavior(t *testing.T) {
	src := buildStore(t, FullCopy)
	dec := decodeAndMaterialize(t, encodeImage(t, src))
	fork := src.ForkClone()

	drive := func(s *Store) {
		c := NewCell(s, "t.cell", int64(0)) // returns the existing cell
		m := NewMap[string, string](s, "t.map")
		s.Checkpoint()
		c.Set(99)
		m.Set("epsilon", "e")
		s.Rollback()
		s.Checkpoint()
		m.Set("zeta", "z")
		s.DiscardLog()
	}
	drive(dec)
	drive(fork)
	a := encodeImage(t, dec)
	b := encodeImage(t, fork)
	if !bytes.Equal(a, b) {
		t.Fatal("decoded store diverged from ForkClone under identical operations")
	}
}

func TestStoreImagePendingForkClone(t *testing.T) {
	src := buildStore(t, Optimized)
	img := encodeImage(t, src)
	pending, err := decodeStore(wire.NewDecoder(img))
	if err != nil {
		t.Fatal(err)
	}
	// A pending store is its decoded record: it writes out as it was read.
	if got := encodeImage(t, pending); !bytes.Equal(img, got) {
		t.Fatal("the image of a still-pending store differs from the one it was decoded from")
	}
	// Fork the pending store twice; materialize each independently.
	for i := 0; i < 2; i++ {
		f := pending.ForkClone()
		registerTestContainers(f)
		if err := f.FinishDecode(); err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
		if got := encodeImage(t, f); !bytes.Equal(img, got) {
			t.Fatalf("fork %d image differs from source", i)
		}
	}
}

func TestStoreImageRejectsInFlightLog(t *testing.T) {
	s := NewStore("busy", Unoptimized)
	c := NewCell(s, "c", int64(0))
	s.Checkpoint()
	c.Set(1) // leaves an undo record
	if _, err := encodeStore(s); err == nil {
		t.Fatal("encoded a store with an in-flight undo log")
	}
}

func TestStoreImageTypeMismatch(t *testing.T) {
	src := buildStore(t, Optimized)
	img := encodeImage(t, src)
	s, err := decodeStore(wire.NewDecoder(img))
	if err != nil {
		t.Fatal(err)
	}
	// Materialize t.cell with the wrong element type.
	NewCell(s, "t.cell", "not an int64")
	NewMap[string, string](s, "t.map")
	NewSlice[int32](s, "t.slice")
	err = s.FinishDecode()
	if err == nil || !strings.Contains(err.Error(), "type") {
		t.Fatalf("type mismatch not surfaced: %v", err)
	}
}

func TestStoreImageLeftoverContainer(t *testing.T) {
	src := buildStore(t, Optimized)
	img := encodeImage(t, src)
	s, err := decodeStore(wire.NewDecoder(img))
	if err != nil {
		t.Fatal(err)
	}
	NewCell(s, "t.cell", int64(0)) // factory "forgets" the map and slice
	if err := s.FinishDecode(); err == nil {
		t.Fatal("leftover pending containers not surfaced")
	}
}

func TestStoreImageTruncated(t *testing.T) {
	img := encodeImage(t, buildStore(t, Optimized))
	for cut := 0; cut < len(img); cut += 11 {
		if _, err := decodeStore(wire.NewDecoder(img[:cut])); err == nil {
			// Truncation may also surface later, at materialization.
			s, _ := decodeStore(wire.NewDecoder(img[:cut]))
			registerTestContainers(s)
			if err := s.FinishDecode(); err == nil {
				t.Fatalf("truncation at %d/%d fully decoded without error", cut, len(img))
			}
		}
	}
}

// One field list: a record with every field set — the two embedded
// scalar structs, each container's payload and bookkeeping and the name
// lists — survives the codec unchanged. A field missing from the list decodes as zero and
// fails the comparison. The rolling-fingerprint part of contMeta and its
// write count are not persistent: a decoded container is re-hashed, and
// its writes count from its decode.
func TestStoreImageCodecCoversEveryField(t *testing.T) {
	var in storeImage
	f := wiretest.Filler{Leaf: func(path string, v reflect.Value) bool {
		// live is the encode-side stand-in for raw, not a field of its own.
		return strings.Contains(path, ".meta.fp") || strings.HasSuffix(path, ".meta.writes") || strings.HasSuffix(path, ".live")
	}}
	f.Fill(&in)
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	if in.code(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	var out storeImage
	d := wire.NewDecoder(e.Bytes())
	c = wire.Decoding(d)
	if out.code(c); c.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", c.Err(), d.Remaining())
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip lost state:\n in  %+v\n out %+v", in, out)
	}
}

// retiredFlag returns a copy of the image data with the retired flag set:
// it is the byte before the last, restorable.
func retiredFlag(t testing.TB, data []byte) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	if at := len(out) - 2; out[at] != 0 {
		t.Fatalf("the retired flag holds %#x", out[at])
	} else {
		out[at] = 1
	}
	return out
}

// A store image whose retired flag — it once announced a nested FullCopy
// checkpoint image — is set is refused, not read as one.
func TestStoreImageRejectsRetiredFlag(t *testing.T) {
	for _, mode := range []Instrumentation{Optimized, FullCopy} {
		img := encodeImage(t, buildStore(t, mode))
		_, err := decodeStore(wire.NewDecoder(retiredFlag(t, img)))
		if err == nil || !strings.Contains(err.Error(), "retired") {
			t.Errorf("mode %d: decode error = %v, want one naming the retired flag", mode, err)
		}
	}
}

// v1Slots are the values the retired slots of format v1 hold in an image:
// the flag that chose FullCopy's checkpoint charge rule, every
// container's write epoch, the checkpoint epoch, the dirty set and the
// flag that once announced a nested FullCopy image.
type v1Slots struct {
	rule, writeEpoch, ckptEpoch uint64
	dirty                       []string
	snapshot                    uint64
}

// canonicalSlots is what every image holds in them.
func canonicalSlots(img *storeImage) v1Slots {
	v := v1Slots{writeEpoch: 1, ckptEpoch: 1}
	for _, ci := range img.conts {
		v.dirty = append(v.dirty, ci.name)
	}
	return v
}

// writeV1 writes the image of s field by field in format v1's order,
// with the retired slots holding v (a bool slot's uvarint 1 is true's
// byte).
func writeV1(t testing.TB, s *Store, v v1Slots) []byte {
	t.Helper()
	img, err := s.image()
	if err != nil {
		t.Fatal(err)
	}
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	c.Str(&img.label)
	wire.Int(c, &img.mode)
	c.Bool(&img.logging)
	wire.Int(c, &img.generation)
	c.Uvarint(&v.rule)
	wire.Int(c, &img.maxLogLen)
	wire.Int(c, &img.maxLogBytes)
	wire.Slice(c, &img.conts, func(c *wire.Codec, ci *contImage) {
		c.Str(&ci.name)
		c.BlobOf(ci.live.codeState)
		c.Uvarint(&v.writeEpoch)
		wire.Int(c, &ci.meta.size)
		c.Bool(&ci.meta.sizeStale)
	})
	c.Uvarint(&v.ckptEpoch)
	wire.Slice(c, &v.dirty, (*wire.Codec).Str)
	wire.Slice(c, &img.sizeDirty, (*wire.Codec).Str)
	wire.Int(c, &img.baseBytes)
	c.Uvarint(&v.snapshot)
	c.Bool(&img.restorable)
	return e.Bytes()
}

// hostileSlots are, per retired slot, values an image may not hold there:
// among them what a FullCopy store under the former incremental rule
// wrote.
func hostileSlots(img *storeImage) map[string]v1Slots {
	out := map[string]v1Slots{}
	for name, mutate := range map[string]func(v *v1Slots){
		"rule flag set":              func(v *v1Slots) { v.rule = 1 },
		"write epoch moved":          func(v *v1Slots) { v.writeEpoch = 3 },
		"write epoch zero":           func(v *v1Slots) { v.writeEpoch = 0 },
		"checkpoint epoch moved":     func(v *v1Slots) { v.ckptEpoch = 4 },
		"dirty set short":            func(v *v1Slots) { v.dirty = v.dirty[1:] },
		"dirty set reordered":        func(v *v1Slots) { slices.Reverse(v.dirty) },
		"dirty set repeats":          func(v *v1Slots) { v.dirty[1] = v.dirty[0] },
		"dirty set lists a stranger": func(v *v1Slots) { v.dirty = append(v.dirty, "t.other") },
		"snapshot flag set":          func(v *v1Slots) { v.snapshot = 1 },
	} {
		v := canonicalSlots(img)
		mutate(&v)
		out[name] = v
	}
	return out
}

// The retired slots of format v1 hold one value each, and an image that
// holds any other is refused rather than read past: a FullCopy store's
// image from before the one charge rule is one of them.
func TestStoreImageRejectsRetiredSlots(t *testing.T) {
	for _, mode := range []Instrumentation{Optimized, FullCopy} {
		s := buildStore(t, mode)
		if got := writeV1(t, s, canonicalSlots(mustImage(t, s))); !bytes.Equal(got, encodeImage(t, s)) {
			t.Fatalf("mode %d: the v1 writer and CodeImage disagree on a canonical image", mode)
		}
		for name, v := range hostileSlots(mustImage(t, s)) {
			_, err := decodeStore(wire.NewDecoder(writeV1(t, s, v)))
			if err == nil || !strings.Contains(err.Error(), "retired") {
				t.Errorf("mode %d, %s: decode error = %v, want one naming the retired slot", mode, name, err)
			}
		}
	}
}

func mustImage(t testing.TB, s *Store) *storeImage {
	t.Helper()
	img, err := s.image()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// hostileSizes rewrites the size caches of s's image, per case, into ones
// no store holds: a base that is not the sum of the sizes (the -2^40 that
// once decoded, and fed the recovery clone cost), a negative size, sizes
// whose sum overflows to the base, and stale lists that name a fresh
// container, miss a stale one or repeat one.
func hostileSizes(t testing.TB, s *Store) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, mutate := range map[string]func(img *storeImage){
		"base far negative": func(img *storeImage) { img.baseBytes = -1 << 40 },
		"base off by one":   func(img *storeImage) { img.baseBytes++ },
		"negative size": func(img *storeImage) {
			img.baseBytes -= img.conts[1].meta.size + 5
			img.conts[1].meta.size = -5
		},
		"sizes overflow": func(img *storeImage) {
			img.conts[1].meta.size += 1 << 62
			img.conts[2].meta.size += 1 << 62
			img.baseBytes += -1 << 63 // 2^63: wraps as the sum does
		},
		"stale list names a fresh container":  func(img *storeImage) { img.sizeDirty = append(img.sizeDirty, "t.map") },
		"stale list misses a stale container": func(img *storeImage) { img.sizeDirty = nil },
		"stale list repeats":                  func(img *storeImage) { img.sizeDirty = append(img.sizeDirty, img.sizeDirty...) },
		"stale list swaps for a fresh one":    func(img *storeImage) { img.sizeDirty = []string{"t.slice"} },
		"stale list repeats one, misses one": func(img *storeImage) {
			img.conts[1].meta.sizeStale = true
			img.sizeDirty = []string{"t.cell", "t.cell"}
		},
	} {
		img := mustImage(t, s)
		mutate(img)
		e := wire.NewEncoder()
		c := wire.Encoding(e)
		if img.code(c); c.Err() != nil {
			t.Fatal(c.Err())
		}
		out[name] = e.Bytes()
	}
	return out
}

// A decoded store's size caches are refused unless a store could hold
// them: the sizes are not negative and sum to the base bytes, and the
// stale list names exactly the stale containers, each once. BaseBytes
// feeds the recovery clone cost, the FullCopy charge and Table VI.
func TestStoreImageRejectsHostileSizeCaches(t *testing.T) {
	s := buildStore(t, Optimized) // t.cell stale, t.map and t.slice fresh
	if got := mustImage(t, s).sizeDirty; !slices.Equal(got, []string{"t.cell"}) {
		t.Fatalf("stale list %v, want [t.cell]", got)
	}
	for name, data := range hostileSizes(t, s) {
		dec, err := decodeStore(wire.NewDecoder(data))
		if err == nil {
			registerTestContainers(dec)
			err = dec.FinishDecode()
		}
		if err == nil {
			t.Errorf("%s: decoded, BaseBytes %d", name, dec.BaseBytes())
		}
	}
}

// Scalars travel by assignment: Clone inherits the identity and starts
// the checkpoint position afresh, ForkClone and a decoded image carry
// both.
func TestStoreScalarsCopiedWhole(t *testing.T) {
	src := buildStore(t, FullCopy)
	(&wiretest.Filler{}).Fill(&src.storeIdent)
	(&wiretest.Filler{}).Fill(&src.storeCkpt)
	src.mode = FullCopy
	src.baseBytes = 0 // an image holds it to the sum of the cached sizes
	for _, name := range src.order {
		src.baseBytes += src.containers[name].meta().size
	}

	if c := src.Clone(); c.storeIdent != src.storeIdent || c.storeCkpt != (storeCkpt{}) {
		t.Errorf("Clone: identity %+v, position %+v; want the source's identity %+v and a fresh position",
			c.storeIdent, c.storeCkpt, src.storeIdent)
	}
	fork := src.ForkClone()
	dec := decodeAndMaterialize(t, encodeImage(t, src))
	for name, s := range map[string]*Store{"ForkClone": fork, "decoded image": dec, "ForkClone of a pending store": pendingFork(t, src)} {
		if s.storeIdent != src.storeIdent || s.storeCkpt != src.storeCkpt {
			t.Errorf("%s: scalars %+v %+v, want %+v %+v", name, s.storeIdent, s.storeCkpt, src.storeIdent, src.storeCkpt)
		}
	}
}

// pendingFork decodes src's image, forks the still-pending store and
// materializes the fork.
func pendingFork(t *testing.T, src *Store) *Store {
	t.Helper()
	pending, err := decodeStore(wire.NewDecoder(encodeImage(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	f := pending.ForkClone()
	registerTestContainers(f)
	if err := f.FinishDecode(); err != nil {
		t.Fatal(err)
	}
	return f
}

// FuzzDecodeStoreImage: any byte string decodes to a pending store or an
// error, and materializing what decoded ends in a store or an error —
// never a panic, never an allocation the input's size does not bound.
func FuzzDecodeStoreImage(f *testing.F) {
	for _, mode := range []Instrumentation{Optimized, FullCopy, Baseline, Unoptimized} {
		s := NewStore("img-test", mode)
		s.SetLogging(true)
		c, m, sl := registerTestContainers(s)
		s.Checkpoint()
		c.Set(42)
		m.Set("alpha", "a")
		sl.Append(3)
		s.Checkpoint()
		m.Set("delta", "d")
		s.DiscardLog()
		img, err := encodeStore(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		for cut := 0; cut < len(img); cut += 11 { // TestStoreImageTruncated's cuts
			f.Add(img[:cut])
		}
		// A container count, and a container payload's slice length, of
		// 2^63 or more.
		huge := binary.AppendUvarint(nil, 1<<63+1)
		at := 1 + len("img-test") + 6 // label, then six one-byte scalars
		f.Add(append(append(append([]byte(nil), img[:at]...), huge...), img[at+1:]...))
		if i := bytes.Index(img, []byte("int32")); i > 0 {
			f.Add(append(append(append([]byte(nil), img[:i+5]...), huge...), img[i+6:]...))
		}
		f.Add(retiredFlag(f, img))
		for _, v := range hostileSlots(mustImage(f, s)) {
			f.Add(writeV1(f, s, v))
		}
	}
	for _, data := range hostileSizes(f, buildStore(f, Optimized)) {
		f.Add(data)
	}
	// Slices on and around page boundaries, and nil beside empty.
	for _, n := range []int{-1, 0, 1, slicePageLen - 1, slicePageLen, slicePageLen + 1, 2*slicePageLen + 1} {
		s := NewStore("img-test", Optimized)
		_, _, sl := registerTestContainers(s)
		if n == 0 {
			makeEmpty(sl)
		}
		for i := 0; i < n; i++ {
			sl.Append(int32(i * 37))
		}
		img, err := encodeStore(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	// A map of several pages; the same with a key repeated (refused); and
	// keys that collide in one slot of the index under this process's
	// seed, and under no other's.
	keys := numbered("k", 5*mapPageLen)
	keys[0], keys[1] = "ka", "kb"
	f.Add(mapImage(f, keys))
	f.Add(repeatKey(f, mapImage(f, keys), keys))
	f.Add(mapImage(f, collidingKeys(2*mapPageLen)))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDecoder(data)
		s, err := decodeStore(d)
		if err != nil {
			return
		}
		read := data[:len(data)-d.Remaining()]
		func() {
			// A factory meeting containers of another type than it
			// declares panics by contract (a code/image mismatch, refused
			// by FinishDecode when it is a payload mismatch instead).
			defer func() { recover() }()
			registerTestContainers(s)
		}()
		if s.FinishDecode() != nil {
			return
		}
		// A store that decoded encodes back to the bytes it was read from.
		again, err := encodeStore(s)
		if err != nil {
			t.Fatalf("a decoded store does not encode: %v", err)
		}
		if !bytes.Equal(again, read) {
			t.Fatalf("decoded from\n%x\nencodes to\n%x", read, again)
		}
	})
}
