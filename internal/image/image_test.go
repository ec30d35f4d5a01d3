package image_test

// Round-trip proofs for the on-disk snapshot format: a machine forked
// from a decoded image must be indistinguishable from one forked from
// the in-memory original, writes must be byte-deterministic at any
// worker count, and corrupt or truncated files must fail loudly.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/usr"
	"repro/internal/wire"
)

const testLimit sim.Cycles = 500_000_000

// suiteOpts is the campaign-driver boot shape: full suite, heartbeats.
func suiteOpts(seed uint64) boot.Options {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	return boot.Options{
		Config:     core.Config{Policy: seep.PolicyEnhanced, Seed: seed},
		Registry:   reg,
		Heartbeats: true,
	}
}

func captureSnapshot(t testing.TB, seed uint64) *boot.Snapshot {
	t.Helper()
	return rungSnapshot(t, suiteOpts(seed), 0)
}

// forkAndRun forks snap under seed and runs the post-barrier suite.
func forkAndRun(t *testing.T, snap *boot.Snapshot, seed uint64) (kernel.Result, testsuite.Report) {
	t.Helper()
	var report testsuite.Report
	sys, err := snap.Fork(boot.ForkParams{Seed: seed}, testsuite.RunnerResumeFrom(&report, testsuite.Report{}))
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	return sys.Run(testLimit), report
}

func encode(t testing.TB, snap *boot.Snapshot, o image.WriteOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := image.WriteSnapshot(&buf, snap, o); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func decode(t testing.TB, data []byte, workers int) *boot.Snapshot {
	t.Helper()
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	snap, err := image.ReadSnapshot(bytes.NewReader(data), reg, workers)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return snap
}

// TestRoundTripForkEquivalence: decode(encode(S)) forks machines
// bit-identical to S — outcome, cycle count, and per-test results —
// under the capture seed, a different seed, and with compression on.
func TestRoundTripForkEquivalence(t *testing.T) {
	snap := captureSnapshot(t, 7)
	for _, tc := range []struct {
		name string
		o    image.WriteOptions
	}{
		{"raw", image.WriteOptions{}},
		{"compressed", image.WriteOptions{Compress: true}},
		{"serial", image.WriteOptions{Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			decoded := decode(t, encode(t, snap, tc.o), tc.o.Workers)
			for _, seed := range []uint64{7, 99} {
				origRes, origRep := forkAndRun(t, snap, seed)
				decRes, decRep := forkAndRun(t, decoded, seed)
				if !reflect.DeepEqual(origRes, decRes) {
					t.Errorf("seed %d: kernel result differs:\norig    %+v\ndecoded %+v", seed, origRes, decRes)
				}
				if !reflect.DeepEqual(origRep, decRep) {
					t.Errorf("seed %d: suite report differs:\norig    %+v\ndecoded %+v", seed, origRep, decRep)
				}
			}
		})
	}
}

// vandal is a resume program that rewrites the disk under the snapshot it
// was forked from: every installed binary is truncated and overwritten,
// every other one then unlinked, and a file of fresh blocks written over
// what that freed. It reports how many files it rewrote.
func vandal(rewrote *int) usr.Program {
	return func(p *usr.Proc) int {
		names, errno := p.ReadDir("/bin")
		if errno != kernel.OK {
			return 1
		}
		for i, name := range names {
			fd, errno := p.Open("/bin/"+name, proto.OTrunc)
			if errno != kernel.OK {
				return 1
			}
			p.Write(fd, bytes.Repeat([]byte{0xA5}, 5000)) // two blocks where there was one
			p.Close(fd)
			if i%2 == 1 {
				p.Unlink("/bin/" + name)
			}
			*rewrote++
		}
		fd, _ := p.Create("/scribble")
		p.Write(fd, bytes.Repeat([]byte{0x5A}, 40<<10))
		p.Close(fd)
		p.Sync()
		return 0
	}
}

// fingerprintOfFork forks snap, does not run the fork, and returns its
// state fingerprint.
func fingerprintOfFork(t *testing.T, snap *boot.Snapshot) uint64 {
	t.Helper()
	sys, err := snap.Fork(boot.ForkParams{Seed: 3}, testsuite.RunnerResumeFrom(new(testsuite.Report), testsuite.Report{}))
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	defer sys.Shutdown("fingerprinted")
	fp, err := sys.StateFingerprint()
	if err != nil {
		t.Fatalf("StateFingerprint: %v", err)
	}
	return fp
}

// TestDecodedSnapshotImmutable: one decoded snapshot serves many forks,
// and nothing a fork does shows in the next — not on the disk either,
// whose blocks every fork shares with the decoded image, which holds them
// as slices of the buffer the file was read into. One fork overwrites,
// truncates and unlinks every file; afterwards a fresh fork fingerprints
// as a fork of the in-memory original does, the decoded snapshot writes
// out to the bytes it was read from, and two runs of the suite from it
// agree.
func TestDecodedSnapshotImmutable(t *testing.T) {
	snap := captureSnapshot(t, 3)
	want := fingerprintOfFork(t, snap)
	for _, o := range []image.WriteOptions{{}, {Compress: true}} {
		data := encode(t, snap, o)
		decoded := decode(t, data, 0)
		if got := fingerprintOfFork(t, decoded); got != want {
			t.Fatalf("compress=%v: a fork of the decoded snapshot fingerprints %016x, of the original %016x", o.Compress, got, want)
		}

		rewrote := 0
		sys, err := decoded.Fork(boot.ForkParams{Seed: 3}, vandal(&rewrote))
		if err != nil {
			t.Fatalf("Fork: %v", err)
		}
		if res := sys.Run(testLimit); rewrote < 20 {
			t.Fatalf("compress=%v: the vandal rewrote %d files (run: %+v)", o.Compress, rewrote, res)
		}

		if got := fingerprintOfFork(t, decoded); got != want {
			t.Errorf("compress=%v: after a sibling rewrote the disk a fork fingerprints %016x, before %016x", o.Compress, got, want)
		}
		if again := encode(t, decoded, o); !bytes.Equal(again, data) {
			t.Errorf("compress=%v: the decoded snapshot no longer writes out to the bytes it was read from", o.Compress)
		}
		firstRes, firstRep := forkAndRun(t, decoded, 3)
		secondRes, secondRep := forkAndRun(t, decoded, 3)
		if !reflect.DeepEqual(firstRes, secondRes) || !reflect.DeepEqual(firstRep, secondRep) {
			t.Errorf("compress=%v: second fork from decoded snapshot differs:\nfirst  %+v %+v\nsecond %+v %+v",
				o.Compress, firstRes, firstRep, secondRes, secondRep)
		}
		origRes, origRep := forkAndRun(t, snap, 3)
		if !reflect.DeepEqual(firstRes, origRes) || !reflect.DeepEqual(firstRep, origRep) {
			t.Errorf("compress=%v: a fork of the decoded snapshot ran differently from one of the original", o.Compress)
		}
	}
}

// TestWriteDeterminism: the byte stream is identical at every worker
// count, with and without compression.
func TestWriteDeterminism(t *testing.T) {
	snap := captureSnapshot(t, 11)
	for _, compress := range []bool{false, true} {
		base := encode(t, snap, image.WriteOptions{Compress: compress, Workers: 1})
		for _, workers := range []int{0, 2, 8} {
			got := encode(t, snap, image.WriteOptions{Compress: compress, Workers: workers})
			if !bytes.Equal(base, got) {
				t.Errorf("compress=%v: %d-worker encode differs from serial (%d vs %d bytes)",
					compress, workers, len(got), len(base))
			}
		}
	}
	if err := image.WriteSnapshot(&bytes.Buffer{}, snap, image.WriteOptions{}); err != nil {
		t.Fatalf("re-encode after determinism runs: %v", err)
	}
}

// failingWriter takes the first k bytes written to it, then fails.
type failingWriter struct {
	k    int
	took []byte
}

var errWriterFull = errors.New("writer full")

func (f *failingWriter) Write(p []byte) (int, error) {
	n := min(len(p), f.k-len(f.took))
	f.took = append(f.took, p[:n]...)
	if n < len(p) {
		return n, errWriterFull
	}
	return n, nil
}

// storedSpan returns where the named frame's stored bytes stand in the
// image data.
func storedSpan(t *testing.T, data []byte, name string) (start, end int) {
	t.Helper()
	d := wire.NewDecoder(data[len(image.Magic):])
	d.Uvarint() // flags
	for i := d.Uvarint(); i > 0; i-- {
		frame := d.Str()
		d.Uvarint() // raw length
		storedLen := int(d.Uvarint())
		d.U32() // checksum
		start = len(data) - d.Remaining()
		d.Take(storedLen)
		if d.Err() != nil {
			t.Fatalf("frame %q: %v", frame, d.Err())
		}
		if frame == name {
			return start, start + storedLen
		}
	}
	t.Fatalf("no frame %q", name)
	return 0, 0
}

// TestWriteSnapshotReturnsTheWritersError: a writer that fails at byte k
// — the first, inside the headers, inside the blocks frame, which is
// streamed from the disk rather than written from a buffer, or the last
// — gets its error back from WriteSnapshot, raw and compressed, and has
// taken the image's first k bytes.
func TestWriteSnapshotReturnsTheWritersError(t *testing.T) {
	snap := captureSnapshot(t, 3)
	for _, compress := range []bool{false, true} {
		o := image.WriteOptions{Compress: compress, Workers: 1}
		data := encode(t, snap, o)
		start, end := storedSpan(t, data, "blocks")
		for _, k := range []int{0, len(image.Magic) + 1, start - 1, (start + end) / 2, len(data) - 1} {
			w := &failingWriter{k: k}
			if err := image.WriteSnapshot(w, snap, o); !errors.Is(err, errWriterFull) {
				t.Errorf("compress=%v, a writer failing at byte %d of %d: WriteSnapshot = %v", compress, k, len(data), err)
			}
			if !bytes.Equal(w.took, data[:k]) {
				t.Errorf("compress=%v, a writer failing at byte %d: it took %d bytes unlike the image's", compress, k, len(w.took))
			}
		}
	}
}

// TestCorruptionRejected: flipping any byte or truncating at any point
// must fail the read — never yield a snapshot silently.
func TestCorruptionRejected(t *testing.T) {
	snap := captureSnapshot(t, 5)
	data := encode(t, snap, image.WriteOptions{})
	reg := usr.NewRegistry()
	testsuite.Register(reg)

	for off := 0; off < len(data); off += 997 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := image.ReadSnapshot(bytes.NewReader(mut), reg, 0); err == nil {
			t.Fatalf("byte flip at offset %d decoded successfully", off)
		}
	}
	for cut := 0; cut < len(data); cut += 1009 {
		if _, err := image.ReadSnapshot(bytes.NewReader(data[:cut]), reg, 0); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(data))
		}
	}
}

// TestRegistryValidated: reading with a registry whose program set
// differs from the captured machine's is an error, and a nil registry
// is rejected outright.
func TestRegistryValidated(t *testing.T) {
	snap := captureSnapshot(t, 2)
	data := encode(t, snap, image.WriteOptions{})

	empty := usr.NewRegistry()
	if _, err := image.ReadSnapshot(bytes.NewReader(data), empty, 0); err == nil {
		t.Fatal("read with an empty registry succeeded")
	}
	extra := usr.NewRegistry()
	testsuite.Register(extra)
	extra.Register("zz-not-captured", func(p *usr.Proc) int { return 0 })
	if _, err := image.ReadSnapshot(bytes.NewReader(data), extra, 0); err == nil {
		t.Fatal("read with an extra program succeeded")
	}
	if _, err := image.ReadSnapshot(bytes.NewReader(data), nil, 0); err == nil {
		t.Fatal("read with a nil registry succeeded")
	}
}

// Encode/decode throughput for EXPERIMENTS.md.
func benchWrite(b *testing.B, o image.WriteOptions) {
	snap := captureSnapshot(b, 1)
	size := int64(len(encode(b, snap, o)))
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := image.WriteSnapshot(&buf, snap, o); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRead(b *testing.B, o image.WriteOptions, workers int) {
	snap := captureSnapshot(b, 1)
	data := encode(b, snap, o)
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := image.ReadSnapshot(bytes.NewReader(data), reg, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRoundTripFork is persist_replay's image op: write, read, fork the
// decoded snapshot, tear the fork down.
func benchRoundTripFork(b *testing.B, o image.WriteOptions) {
	snap := captureSnapshot(b, 1)
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	b.SetBytes(int64(len(encode(b, snap, o))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := image.WriteSnapshot(&buf, snap, o); err != nil {
			b.Fatal(err)
		}
		decoded, err := image.ReadSnapshot(bytes.NewReader(buf.Bytes()), reg, o.Workers)
		if err != nil {
			b.Fatal(err)
		}
		var report testsuite.Report
		sys, err := decoded.Fork(boot.ForkParams{Seed: 1}, testsuite.RunnerResumeFrom(&report, testsuite.Report{}))
		if err != nil {
			b.Fatal(err)
		}
		sys.Shutdown("benchmark fork torn down")
	}
}

func BenchmarkWriteRaw(b *testing.B)        { benchWrite(b, image.WriteOptions{}) }
func BenchmarkWriteRawSerial(b *testing.B)  { benchWrite(b, image.WriteOptions{Workers: 1}) }
func BenchmarkWriteCompressed(b *testing.B) { benchWrite(b, image.WriteOptions{Compress: true}) }
func BenchmarkReadRaw(b *testing.B)         { benchRead(b, image.WriteOptions{}, 0) }
func BenchmarkReadRawSerial(b *testing.B)   { benchRead(b, image.WriteOptions{}, 1) }
func BenchmarkReadCompressed(b *testing.B)  { benchRead(b, image.WriteOptions{Compress: true}, 0) }

func BenchmarkRoundTripForkRaw(b *testing.B) { benchRoundTripFork(b, image.WriteOptions{Workers: 1}) }
func BenchmarkRoundTripForkCompressed(b *testing.B) {
	benchRoundTripFork(b, image.WriteOptions{Compress: true, Workers: 1})
}
