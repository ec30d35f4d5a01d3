package driver

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/wire"
)

// fill returns a full block of byte v.
func fill(v byte) []byte { return bytes.Repeat([]byte{v}, fs.BlockSize) }

// mustRead returns block b as the full block it stands for: the stored
// prefix, zero-padded to fs.BlockSize.
func mustRead(t *testing.T, d *Driver, b int32) []byte {
	t.Helper()
	data, errno := d.read(b)
	if errno != kernel.OK {
		t.Fatalf("read(%d) = %v", b, errno)
	}
	return append(append([]byte(nil), data...), make([]byte, fs.BlockSize-len(data))...)
}

// padded returns a stored block as the full block it stands for, nil for
// one never written.
func padded(blk []byte) []byte {
	if blk == nil {
		return nil
	}
	return append(append([]byte(nil), blk...), make([]byte, fs.BlockSize-len(blk))...)
}

// written returns what img.WriteTo writes, after checking that it
// returns the count it wrote, that the count is EncodedLen, and that
// DecodeImage reads the bytes back to img's blocks, padded.
func written(t *testing.T, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := img.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) || n != img.EncodedLen() {
		t.Fatalf("WriteTo wrote %d bytes and returned %d, EncodedLen %d", buf.Len(), n, img.EncodedLen())
	}
	dec, err := DecodeImage(wire.NewDecoder(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeImage: %v", err)
	}
	if dec.n != img.n {
		t.Fatalf("decoded %d blocks, want %d", dec.n, img.n)
	}
	for b := int32(0); b < img.n; b++ {
		if got, want := dec.block(b), padded(img.block(b)); (got == nil) != (want == nil) || !bytes.Equal(got, want) {
			t.Fatalf("block %d reads back unlike the image's", b)
		}
	}
	return buf.Bytes()
}

// referenceFingerprint recomputes the device hash from scratch.
func referenceFingerprint(d *Driver) uint64 {
	var fp uint64
	for b := int32(0); b < d.n; b++ {
		fp += blockMix(b, d.block(b))
	}
	return fp
}

// A device of 200 blocks spans four pages, the last one partial.
const testBlocks = 200

func TestNewAllocatesNoPage(t *testing.T) {
	d := New(testBlocks)
	for p, pg := range d.pages {
		if pg != nil {
			t.Fatalf("page %d exists before any write", p)
		}
	}
	if got := mustRead(t, d, testBlocks-1); !bytes.Equal(got, fill(0)) {
		t.Fatal("never-written block does not read as zeros")
	}
	if d.Fingerprint() != 0 {
		t.Fatal("empty device fingerprint is not zero")
	}
}

func TestShareForkCopyOnWrite(t *testing.T) {
	d := New(testBlocks)
	d.write(3, fill('a'))   // page 0
	d.write(130, fill('b')) // page 2
	img := d.Share()
	f1, f2 := NewFromImage(img), NewFromImage(img)

	f1.write(3, fill('X'))
	if got := mustRead(t, f1, 3); got[0] != 'X' {
		t.Fatalf("fork does not see its own write: %q", got[0])
	}
	for name, other := range map[string]*Driver{"sibling fork": f2, "captured driver": d, "late fork": NewFromImage(img)} {
		if got := mustRead(t, other, 3); got[0] != 'a' {
			t.Errorf("%s sees the fork's write: %q", name, got[0])
		}
	}
	if f1.pages[0] == img.pages[0] {
		t.Error("the written page is still the image's")
	}
	if f1.pages[2] != img.pages[2] {
		t.Error("a page the fork never wrote was copied")
	}

	// The captured driver gave up ownership too: its next write copies.
	d.write(4, fill('c'))
	if d.pages[0] == img.pages[0] {
		t.Error("the captured driver wrote into the image's page")
	}
	if got := mustRead(t, f2, 4); got[0] != 0 {
		t.Errorf("a fork sees a write made after the capture: %q", got[0])
	}
}

func TestFingerprintTracksContents(t *testing.T) {
	d := New(testBlocks)
	d.write(3, fill('a'))
	d.write(130, fill('b'))
	d.write(199, []byte("short")) // a short prefix
	if got, want := d.Fingerprint(), referenceFingerprint(d); got != want {
		t.Fatalf("fingerprint %x, recomputed %x", got, want)
	}
	img := d.Share()
	f := NewFromImage(img)
	if f.Fingerprint() != d.Fingerprint() {
		t.Fatal("a fresh fork hashes differently from its source")
	}
	if f.nstale != 0 || f.pages[0] != img.pages[0] {
		t.Fatal("a clean fork hashed or copied something")
	}
	// Overwrites, fresh blocks and a rewrite back to the old contents, in
	// one hashing round and spread over several.
	f.write(3, fill('z'))
	f.write(64, fill('q'))
	if got, want := f.Fingerprint(), referenceFingerprint(f); got != want {
		t.Fatalf("after writes: fingerprint %x, recomputed %x", got, want)
	}
	if f.Fingerprint() == d.Fingerprint() {
		t.Fatal("different contents, equal fingerprints")
	}
	f.write(3, fill('a'))
	f.write(64, fill(0))
	f.write(64, fill('q'))
	f.write(64, nil) // a written block of zeros is not a never-written one
	if got, want := f.Fingerprint(), referenceFingerprint(f); got != want {
		t.Fatalf("after rewrites: fingerprint %x, recomputed %x", got, want)
	}
	// The source is untouched by all of it.
	if got, want := d.Fingerprint(), referenceFingerprint(d); got != want || got != NewFromImage(img).Fingerprint() {
		t.Fatalf("source fingerprint moved: %x, recomputed %x", got, want)
	}
}

func TestImageRoundTrip(t *testing.T) {
	d := New(testBlocks)
	d.write(0, fill('a'))
	d.write(63, fill('b'))
	d.write(64, fill('c'))
	d.write(199, fill('d'))
	img := d.Share()

	// The stream is the flat one: count, then every block in order.
	want := wire.NewEncoder()
	want.Uvarint(testBlocks)
	for b := int32(0); b < testBlocks; b++ {
		want.Blob(d.block(b))
	}
	got := written(t, img)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("written image differs from the flat block stream")
	}

	dec, err := DecodeImage(wire.NewDecoder(got))
	if err != nil {
		t.Fatalf("DecodeImage: %v", err)
	}
	if dec.n != testBlocks || dec.SizeBytes() != img.SizeBytes() {
		t.Fatalf("decoded image: %d blocks, %d bytes; want %d, %d", dec.n, dec.SizeBytes(), testBlocks, img.SizeBytes())
	}
	f := NewFromImage(dec)
	for b := int32(0); b < testBlocks; b++ {
		if !bytes.Equal(mustRead(t, f, b), mustRead(t, d, b)) {
			t.Fatalf("block %d differs after the round trip", b)
		}
	}
	// A decoded image carries no hashes: the fork computes them, without
	// writing into the image other forks share.
	if f.Fingerprint() != d.Fingerprint() {
		t.Fatal("decoded fork hashes differently from the original")
	}
	if NewFromImage(dec).Fingerprint() != d.Fingerprint() {
		t.Fatal("a second decoded fork hashes differently")
	}
}

func TestDecodeImageRejectsMalformedStreams(t *testing.T) {
	short := wire.NewEncoder()
	short.Uvarint(2)
	short.Blob([]byte("not a block"))
	short.Blob(nil)
	if _, err := DecodeImage(wire.NewDecoder(short.Bytes())); err == nil {
		t.Error("a block of the wrong size was accepted")
	}
	huge := wire.NewEncoder()
	huge.Uvarint(1 << 40)
	if _, err := DecodeImage(wire.NewDecoder(huge.Bytes())); err == nil {
		t.Error("a block count beyond the stream was accepted")
	}
	truncated := wire.NewEncoder()
	truncated.Uvarint(3)
	truncated.Blob(fill('a'))
	if _, err := DecodeImage(wire.NewDecoder(truncated.Bytes()[:100])); err == nil {
		t.Error("a truncated stream was accepted")
	}
}

// WriteTo gathers the heads between prefixes in a buffer it flushes every
// headBatch bytes. Runs of never-written blocks longer than that — first,
// between written blocks and last — and disks with no block or every
// block written, prefixes short and full, write the flat block stream.
func TestWriteToMatchesFlatStream(t *testing.T) {
	const long = 3*headBatch + 5
	for _, c := range []struct {
		name    string
		n       int32
		written []int32
	}{
		{"no-blocks", 0, nil},
		{"none-written", long, nil},
		{"first-and-last", long, []int32{0, long - 1}},
		{"after-a-long-run", long, []int32{2 * headBatch, 2*headBatch + 1}},
		{"runs-between", long, []int32{headBatch - 1, 2*headBatch + 1, 3 * headBatch}},
		{"all-written", 2 * pageBlocks, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := New(c.n)
			blocks := c.written
			if c.name == "all-written" {
				for b := int32(0); b < c.n; b++ {
					blocks = append(blocks, b)
				}
			}
			for i, b := range blocks {
				// Prefixes of every length class: one byte, a part, all of it.
				d.write(b, bytes.Repeat([]byte{byte(1 + i)}, []int{1, 1 + i*37%fs.BlockSize, fs.BlockSize}[i%3]))
			}
			want := wire.NewEncoder()
			want.Uvarint(uint64(c.n))
			for b := int32(0); b < c.n; b++ {
				want.Blob(padded(d.block(b)))
			}
			if got := written(t, d.Share()); !bytes.Equal(got, want.Bytes()) {
				t.Fatal("written image differs from the flat block stream")
			}
		})
	}
}

// failAt is a writer that takes k bytes and then fails.
type failAt struct{ k int }

var errFull = errors.New("writer full")

func (f *failAt) Write(p []byte) (int, error) {
	if len(p) <= f.k {
		f.k -= len(p)
		return len(p), nil
	}
	n := f.k
	f.k = 0
	return n, errFull
}

// A writer that fails part of the way through gets WriteTo's error back,
// with the count of the bytes it took: at the first byte, in the heads,
// inside a prefix, inside a padding and at the last byte.
func TestWriteToReturnsTheWritersError(t *testing.T) {
	d := New(testBlocks)
	d.write(0, fill('a'))
	d.write(70, []byte("short"))
	d.write(testBlocks-1, fill('b'))
	img := d.Share()
	// The count and block 0's head take two bytes each; block 70's
	// prefix ends after 69 never-written blocks and its own head.
	const short = 2 + 2 + fs.BlockSize + 69 + 2 + int64(len("short"))
	size := img.EncodedLen()
	for _, k := range []int64{0, 3, 4 + fs.BlockSize/2, short + 100, size - 1} {
		n, err := img.WriteTo(&failAt{int(k)})
		if n != k || !errors.Is(err, errFull) {
			t.Errorf("a writer failing at byte %d of %d: WriteTo = %d, %v", k, size, n, err)
		}
	}
}
