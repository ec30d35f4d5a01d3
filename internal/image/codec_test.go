package image

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memlog"
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
// pending store no DeepEqual could match.
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
		case v.Kind() == reflect.Interface:
			v.Set(reflect.ValueOf([]string{"transient"}))
		default:
			return false
		}
		return true
	}}).Fill(&slot)
	var got core.SlotImage
	roundTrip(t, func(c *wire.Codec) { codeSlot(c, &slot) }, func(c *wire.Codec) { codeSlot(c, &got) })
	if got.Store == nil || got.Store.Label() != "slot-test" {
		t.Fatalf("slot store decoded as %v", got.Store)
	}
	got.EP, got.Store = slot.EP, slot.Store
	if !reflect.DeepEqual(slot, got) {
		t.Errorf("slot round trip lost state:\n in  %+v\n out %+v", slot, got)
	}
}
