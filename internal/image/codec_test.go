package image

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/servers/vfs"
	"repro/internal/usr"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// roundTrip walks in through code encoding, then out through it
// decoding, and requires the frame to be consumed whole.
func roundTrip(t *testing.T, in, out func(*wire.Codec)) {
	t.Helper()
	e := wire.NewEncoder()
	if err := encoding(in)(e); err != nil {
		t.Fatalf("encode: %v", err)
	}
	d := wire.NewDecoder(e.Bytes())
	if err := decoding(out)(d); err != nil || d.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, d.Remaining())
	}
}

// One field list per frame: a meta and a slot record with every field set
// survive the codec unchanged. What a field list leaves out is named
// here: the registry (function values; the reader supplies one and the
// program names are compared), a slot's endpoint (its frame's name) and
// the store, which has a test of its own in memlog and decodes to a
// pending store no DeepEqual could match. The slot is VFS's, whose
// endpoint chooses the transient's coder.
func TestFrameCodecsCoverEveryField(t *testing.T) {
	var in meta
	(&wiretest.Filler{Leaf: func(path string, v reflect.Value) bool {
		return v.Type() == reflect.TypeOf((*usr.Registry)(nil))
	}}).Fill(&in)
	var out meta
	roundTrip(t, in.code, out.code)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("meta round trip lost state:\n in  %+v\n out %+v", in, out)
	}

	var slot core.SlotImage
	(&wiretest.Filler{Leaf: func(path string, v reflect.Value) bool {
		switch {
		case v.Type() == reflect.TypeOf((*memlog.Store)(nil)):
			s := memlog.NewStore("slot-test", memlog.Optimized)
			memlog.NewCell(s, "c", int64(7))
			v.Set(reflect.ValueOf(s))
		case path == "SlotImage.EP":
			v.SetInt(int64(kernel.EpVFS))
		case v.Kind() == reflect.Interface:
			v.Set(reflect.ValueOf(vfsForkState(t, 41)))
		default:
			return false
		}
		return true
	}}).Fill(&slot)
	got := core.SlotImage{EP: slot.EP} // the frame's name, as decodeSnapshot sets it
	roundTrip(t, func(c *wire.Codec) { codeSlot(c, &slot) }, func(c *wire.Codec) { codeSlot(c, &got) })
	if got.Store == nil || got.Store.Label() != "slot-test" {
		t.Fatalf("slot store decoded as %v", got.Store)
	}
	got.Store = slot.Store
	if !reflect.DeepEqual(slot, got) {
		t.Errorf("slot round trip lost state:\n in  %+v\n out %+v", slot, got)
	}
}

// vfsForkState returns the fork state VFS keeps across a fork, with its
// tag cursor at next, read from the bytes its coder writes.
func vfsForkState(t *testing.T, next int64) any {
	t.Helper()
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	c.Tag("vfs.forkState")
	wire.Int(c, &next)
	var state any
	d := wire.NewDecoder(e.Bytes())
	if vfs.CodeForkState(wire.Decoding(d), &state); d.Err() != nil || state == nil {
		t.Fatalf("VFS fork state: %v", d.Err())
	}
	return state
}
