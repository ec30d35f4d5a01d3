package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
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
// set — MachineImage, procImage, liveImage, Message, alarm — survives
// the codec unchanged, the transport plane aside: images carry none. A
// field missing from a list decodes as zero and fails the comparison.
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
	// An image carries no transport plane.
	in.ipc = nil
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
// the cost model and fault rates of the boot configuration, and Aux — nil, a nil argv, an empty one and full ones — in
// the oracle's interface form. A process body in Aux fails the encode.
func TestRecordFieldLists(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[CostModel])
	wiretest.SameAsValue(t, wiretest.Random[IPCFaultConfig])
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
