package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func encodeMachine(t *testing.T, img *MachineImage) []byte {
	t.Helper()
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	if img.Code(c); c.Err() != nil {
		t.Fatalf("encode: %v", c.Err())
	}
	return e.Bytes()
}

func decodeMachine(t *testing.T, data []byte) *MachineImage {
	t.Helper()
	img := new(MachineImage)
	d := wire.NewDecoder(data)
	c := wire.Decoding(d)
	if img.Code(c); c.Err() != nil {
		t.Fatalf("decode: %v", c.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("decode left %d bytes", d.Remaining())
	}
	return img
}

// One field list per type: an image with every field of every type in it
// set — MachineImage, procImage, Message, alarm, planeState and its pair
// records, seqWindow, cachedReply, IPCStats — survives the codec
// unchanged. A field missing from a list decodes as zero and fails the
// comparison.
func TestMachineImageCodecCoversEveryField(t *testing.T) {
	var in MachineImage
	payloads := 0
	f := wiretest.Filler{Leaf: func(path string, v reflect.Value) bool {
		switch {
		case v.Type() == reflect.TypeOf((*sim.Counters)(nil)):
			c := sim.NewCounters()
			c.AddID(ctrDispatches, 11)
			c.AddID(ctrMsgHops, 12)
			v.Set(reflect.ValueOf(c))
		case v.Kind() == reflect.Interface:
			payloads++
			v.Set(reflect.ValueOf([]string{fmt.Sprint("aux", payloads)}))
		default:
			return false
		}
		return true
	}}
	f.Fill(&in)
	// Each filled process points at its own filled record.
	for i := range in.procs {
		in.procs[i].live = int32(i + 1)
	}
	// The table's records move to pairs of the filled processes.
	var pairs pairTable
	for i, row := range in.ipc.pairs {
		for j, ps := range row {
			*pairs.at(in.procs[i].ep, in.procs[j].ep) = *ps
		}
	}
	in.ipc.pairs = pairs
	out := decodeMachine(t, encodeMachine(t, &in))
	if !reflect.DeepEqual(in.counters.Snapshot(), out.counters.Snapshot()) {
		t.Errorf("counters: in %v, out %v", in.counters.Snapshot(), out.counters.Snapshot())
	}
	out.counters = in.counters
	if !reflect.DeepEqual(&in, out) {
		t.Errorf("round trip lost state:\n in  %+v\n out %+v", in, *out)
	}
}

// The lists of the records the reflective walk used to code, against it:
// the cost model and fault rates of the boot configuration, the plane's
// counters, and Aux — nil, a nil argv, an empty one and full ones — in
// the oracle's interface form. A process body in Aux fails the encode.
func TestRecordFieldLists(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[CostModel])
	wiretest.SameAsValue(t, wiretest.Random[IPCFaultConfig])
	wiretest.SameAsValue(t, wiretest.Random[IPCStats])
	wiretest.SameAsAny(t, codeAux, func(r *rand.Rand) any {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return []string(nil)
		case 2:
			return []string{}
		}
		return wiretest.Random[[]string](r)
	})
	var body any = Body(func(*Context) {})
	c := wire.Encoding(wire.NewEncoder())
	if codeAux(c, &body); c.Err() == nil {
		t.Error("a process body in Aux encoded without error")
	}
}

// codeSeqs codes the plane's first list, the pairs' sequence cursors, of
// an image whose process table holds endpoints 0 … EpUserBase+10.
func codeSeqs(c *wire.Codec, t *pairTable) {
	room := pairSlotsPerEntry * int(EpUserBase+11)
	codePairs(c, t, pairFields[0], EpUserBase+10, &room)
}

// The transport table is indexed by both endpoints: a decoded pair
// naming one beyond the image's process table is refused before anything
// is sized by it.
func TestTransportPairOutOfRangeRejected(t *testing.T) {
	for _, pair := range [][2]Endpoint{{1 << 32, 100}, {6, 1<<32 + 100}, {-1, 100}} {
		e := wire.NewEncoder()
		enc := wire.Encoding(e)
		enc.Len(1)
		wire.Int(enc, &pair[0])
		wire.Int(enc, &pair[1])
		seq := uint32(7)
		enc.U32(&seq)

		var got pairTable
		dec := wire.Decoding(wire.NewDecoder(e.Bytes()))
		codeSeqs(dec, &got)
		if dec.Err() == nil {
			t.Errorf("pair %v decoded as %v", pair, got)
		}
	}
}

// A transport list is written in ascending pair order, and read back
// only in it: a pair the stream repeats or puts out of order is refused,
// not folded into one record (the last value winning) — such records
// would encode to other bytes than they were read from.
func TestTransportPairsMustAscend(t *testing.T) {
	for name, pairs := range map[string][][2]Endpoint{
		"ascending":    {{6, 100}, {6, 101}, {7, 1}},
		"repeated":     {{6, 100}, {6, 100}},
		"out of order": {{7, 1}, {6, 100}},
		"src descends": {{6, 101}, {6, 100}},
	} {
		e := wire.NewEncoder()
		enc := wire.Encoding(e)
		enc.Len(len(pairs))
		for i := range pairs {
			wire.Int(enc, &pairs[i][0])
			wire.Int(enc, &pairs[i][1])
			seq := uint32(i + 1)
			enc.U32(&seq)
		}
		var got pairTable
		dec := wire.Decoding(wire.NewDecoder(e.Bytes()))
		codeSeqs(dec, &got)
		if ok := name == "ascending"; (dec.Err() == nil) != ok {
			t.Errorf("%s: decode error %v", name, dec.Err())
		}
	}
}

// A decoded table is paid for by the image that asks for it. A pair
// claims a row as long as its source, so n pairs each from the last
// endpoint would build n rows of n slots from bytes that grow with n:
// decoding refuses them once the rows outgrow their room, having built a
// bounded part. A live table's long rows, one per server with every user
// in it, fit. A process table ending at the top of the int range counts
// no slot sum past it.
func TestTransportTableBoundedByImage(t *testing.T) {
	const users = 4000 // 4000 rows of 4100 slots: 125 MiB
	last := EpUserBase + users - 1
	decode := func(last Endpoint, pairs [][2]Endpoint) error {
		e := wire.NewEncoder()
		enc := wire.Encoding(e)
		var in planeState
		in.stats.Code(enc)
		enc.Len(len(pairs))
		for i := range pairs {
			wire.Int(enc, &pairs[i][0])
			wire.Int(enc, &pairs[i][1])
			seq := uint32(1)
			enc.U32(&seq)
		}
		for range pairFields[1:] {
			enc.Len(0)
		}
		var out planeState
		dec := wire.Decoding(wire.NewDecoder(e.Bytes()))
		codePlane(dec, &out, last, int(EpDriver-EpRS+1)+users)
		return dec.Err()
	}
	var far, servers [][2]Endpoint
	for u := EpUserBase; u <= last; u++ {
		far = append(far, [2]Endpoint{u, last})
	}
	for s := EpRS; s <= EpDriver; s++ {
		for u := EpUserBase; u <= last; u++ {
			servers = append(servers, [2]Endpoint{s, u})
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode(last, far)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "outgrows") {
		t.Errorf("one far pair per user: decode error %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("refusing them allocated %d MiB", got>>20)
	}
	if err := decode(last, servers); err != nil {
		t.Errorf("every user in every server's row: %v", err)
	}
	for _, pair := range [][2]Endpoint{{math.MaxInt, 0}, {0, math.MaxInt}, {math.MaxInt, math.MaxInt}} {
		if err := decode(math.MaxInt, [][2]Endpoint{pair}); err == nil || !strings.Contains(err.Error(), "outgrows") {
			t.Errorf("pair %v: decode error %v", pair, err)
		}
	}
}

// The writer lists a pair under a field only when its record holds one,
// and every value it holds is at least 1: a decoded zero cursor,
// in-service sequence, window top or cached reply sequence is refused,
// since the record would write back without it.
func TestTransportZeroValueRejected(t *testing.T) {
	for i, f := range pairFields {
		var in pairState
		e := wire.NewEncoder()
		enc := wire.Encoding(e)
		enc.Len(1)
		dst, src := EpDS, EpUserBase
		wire.Int(enc, &dst)
		wire.Int(enc, &src)
		f.code(enc, &in)
		var got pairTable
		room := pairSlotsPerEntry
		dec := wire.Decoding(wire.NewDecoder(e.Bytes()))
		if codePairs(dec, &got, f, EpUserBase, &room); dec.Err() == nil {
			t.Errorf("field %d: a zero value decoded as %+v", i, got)
		}
	}
}

// ApplyImage checks what the scheduler will index with before it stamps
// anything: an image read from a file may say anything. Unchecked, a
// cursor past the process table was accepted and panicked inside Run.
func TestApplyImageRejectsBadSchedulerState(t *testing.T) {
	src := barrierMachine(nil)
	if !src.RunToBarrier(testLimit) {
		t.Fatalf("machine ended (%v) before its barrier", src.StepResult())
	}
	captured, err := src.CaptureImage()
	src.Teardown("captured")
	if err != nil {
		t.Fatal(err)
	}
	data := encodeMachine(t, captured)

	// ApplyImage stamps a fresh machine built the way the captured one was.
	k := barrierMachine(nil)
	if err := k.ApplyImage(decodeMachine(t, data)); err != nil {
		t.Fatalf("valid image refused: %v", err)
	}
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("fork of the valid image ended %+v", res)
	}

	for _, tc := range []struct {
		name   string
		mutate func(img *MachineImage)
		want   string
	}{
		{"cursor one past the table", func(img *MachineImage) { img.rrNext = len(img.procs) }, "round-robin cursor"},
		{"cursor far past the table", func(img *MachineImage) { img.rrNext = 1 << 40 }, "round-robin cursor"},
		{"negative cursor", func(img *MachineImage) { img.rrNext = -1 }, "round-robin cursor"},
		{"unknown process state", func(img *MachineImage) { img.lives[img.procs[0].live-1].state = 99 }, "state 99"},
		{"server blocked in SendRec", func(img *MachineImage) { img.lives[img.procs[0].live-1].state = stateSendRec }, "not parked at a barrier"},
		{"root not runnable", func(img *MachineImage) { img.lives[img.procs[len(img.procs)-1].live-1].state = stateReceiving }, "not parked at a barrier"},
		// The process table is indexed by endpoint and sized by the highest.
		{"dead process far past the endpoints", func(img *MachineImage) {
			img.procs = append(img.procs, procImage{ep: 1 << 40})
		}, "outside the user endpoints"},
		// A fork's next spawn grows the table to the allocator's endpoint.
		{"endpoint allocator far past the processes", func(img *MachineImage) { img.nextUserEp = 1 << 27 }, "endpoint allocator"},
		{"endpoint allocator one past its processes", func(img *MachineImage) { img.nextUserEp++ }, "endpoint allocator"},
		{"endpoint allocator behind its processes", func(img *MachineImage) { img.nextUserEp-- }, "outside the user endpoints"},
		{"endpoint allocator below the user endpoints", func(img *MachineImage) { img.nextUserEp = 1 }, "outside the user endpoints"},
		// The IPC plane's pair table is indexed by a sequenced request's sender.
		{"sequenced request from an endpoint never handed out", func(img *MachineImage) {
			img.lives[img.procs[0].live-1].inbox = append(img.lives[img.procs[0].live-1].inbox, Message{From: 1<<32 - 1, NeedsReply: true, Seq: 1})
		}, "never handed out"},
	} {
		img := decodeMachine(t, data)
		tc.mutate(img)
		k := barrierMachine(nil)
		err := k.ApplyImage(img)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ApplyImage error = %v, want one naming %q", tc.name, err, tc.want)
		}
		if err == nil {
			continue
		}
		// A refusal leaves the machine as it was: it still runs cold.
		if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
			t.Errorf("%s: machine after the refusal ended %+v", tc.name, res)
		}
	}
}

// A counter set is written in ascending name order and read back only in
// it: a name the stream repeats would sum into one counter, and one out
// of order would encode to other bytes. A name this binary does not
// register has no slot to land in and is refused.
func TestCounterNamesMustAscend(t *testing.T) {
	for name, names := range map[string][]string{
		"ascending":    {"kernel.alarms_fired", "kernel.dispatches", "kernel.msg_hops"},
		"repeated":     {"kernel.dispatches", "kernel.dispatches"},
		"out of order": {"kernel.msg_hops", "kernel.dispatches"},
		"unregistered": {"kernel.dispatches", "not-a-registered-counter"},
	} {
		e := wire.NewEncoder()
		enc := wire.Encoding(e)
		enc.Len(len(names))
		for i := range names {
			v := uint64(i + 1)
			enc.Str(&names[i])
			enc.Uvarint(&v)
		}
		var got *sim.Counters
		dec := wire.Decoding(wire.NewDecoder(e.Bytes()))
		codeCounters(dec, &got)
		if ok := name == "ascending"; (dec.Err() == nil) != ok {
			t.Errorf("%s: decode error %v", name, dec.Err())
		}
	}
}
