package memlog

import (
	"bytes"
	"encoding/binary"
	"reflect"
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
func buildStore(t *testing.T, mode Instrumentation) *Store {
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
	sl.Truncate(8)
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
// fails the comparison. The rolling-fingerprint part of contMeta is not
// persistent: a decoded container is re-hashed.
func TestStoreImageCodecCoversEveryField(t *testing.T) {
	var in storeImage
	f := wiretest.Filler{Leaf: func(path string, v reflect.Value) bool {
		// live is the encode-side stand-in for raw, not a field of its own.
		return strings.Contains(path, ".meta.fp") || strings.HasSuffix(path, ".live")
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

// Scalars travel by assignment: Clone inherits the identity and starts
// the checkpoint position afresh, ForkClone and a decoded image carry
// both.
func TestStoreScalarsCopiedWhole(t *testing.T) {
	src := buildStore(t, FullCopy)
	(&wiretest.Filler{}).Fill(&src.storeIdent)
	(&wiretest.Filler{}).Fill(&src.storeCkpt)
	src.mode = FullCopy

	if c := src.Clone(); c.storeIdent != src.storeIdent || c.storeCkpt != (storeCkpt{chkGen: 1}) {
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
	}
	// Slices on and around page boundaries, and nil beside empty.
	for _, n := range []int{-1, 0, 1, slicePageLen - 1, slicePageLen, slicePageLen + 1, 2*slicePageLen + 1} {
		s := NewStore("img-test", Optimized)
		_, _, sl := registerTestContainers(s)
		if n == 0 {
			sl.Append(1)
			sl.Truncate(0)
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
