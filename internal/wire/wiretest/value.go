package wiretest

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"repro/internal/wire"
)

// The oracle: the wire format defined by a value's Go type, walked by
// reflection. Bools, integers of every named kind, floats, strings, byte
// slices, slices, arrays, maps with ordered keys and structs whose fields
// are all exported, or retired slots, have a form; anything else is an
// error. A field list (wire.Codec) is correct when it writes what this
// walk writes and reads it back — SameAsValue is that test. Nothing
// outside tests calls it.

// Encode appends x in the form its dynamic type defines.
func Encode(e *wire.Encoder, x any) error {
	c := wire.Encoding(e)
	(&walk{c: c}).value(reflect.ValueOf(x))
	return c.Err()
}

// Decode reads into the value p points to, in the form its type defines.
// The error is also d's.
func Decode(d *wire.Decoder, p any) error {
	v := reflect.ValueOf(p)
	c := wire.Decoding(d)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		c.Fail(fmt.Errorf("wiretest: Decode target must be a non-nil pointer, got %T", p))
	} else {
		(&walk{c: c, d: d}).value(v.Elem())
	}
	return c.Err()
}

var errTruncated = errors.New("wiretest: truncated stream")

// retiredType has a form of its own: the one false byte of a retired slot.
var retiredType = reflect.TypeFor[wire.Retired]()

// walk is one direction of the reflective walk; d is set when decoding.
type walk struct {
	c *wire.Codec
	d *wire.Decoder
}

func (w *walk) failf(format string, args ...any) { w.c.Fail(fmt.Errorf(format, args...)) }

// count reads the head of a slice or map: false for nil (or a failed
// walk), else the element count, checked against the bytes left — every
// element takes at least one.
func (w *walk) count() (int, bool) {
	var n uint64
	if w.c.Uvarint(&n); n == 0 || w.c.Err() != nil {
		return 0, false
	}
	if n-1 > uint64(w.d.Remaining()) {
		w.c.Fail(errTruncated)
		return 0, false
	}
	return int(n - 1), true
}

// head writes the head of a slice or map of n elements.
func (w *walk) head(v reflect.Value) {
	n := uint64(0)
	if !v.IsNil() {
		n = uint64(v.Len()) + 1
	}
	w.c.Uvarint(&n)
}

func (w *walk) value(v reflect.Value) {
	if w.c.Err() != nil {
		return
	}
	dec := w.d != nil
	switch v.Kind() {
	case reflect.Bool:
		b := v.Bool()
		if w.c.Bool(&b); dec {
			v.SetBool(b)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		if wire.Int(w.c, &x); !dec {
			return
		}
		if v.OverflowInt(x) {
			w.failf("wiretest: %d overflows %s", x, v.Type())
			return
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x := v.Uint()
		if w.c.Uvarint(&x); !dec {
			return
		}
		if v.OverflowUint(x) {
			w.failf("wiretest: %d overflows %s", x, v.Type())
			return
		}
		v.SetUint(x)
	case reflect.Float32:
		x := math.Float32bits(float32(v.Float()))
		if w.c.U32(&x); dec {
			v.SetFloat(float64(math.Float32frombits(x)))
		}
	case reflect.Float64:
		x := math.Float64bits(v.Float())
		if wire.Fixed64(w.c, &x); dec {
			v.SetFloat(math.Float64frombits(x))
		}
	case reflect.String:
		s := v.String()
		if w.c.Str(&s); dec {
			v.SetString(s)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b := v.Bytes()
			if w.c.Blob(&b); dec {
				out := reflect.Zero(v.Type())
				if b != nil {
					out = reflect.MakeSlice(v.Type(), len(b), len(b))
					reflect.Copy(out, reflect.ValueOf(b))
				}
				v.Set(out)
			}
			return
		}
		if !dec {
			w.head(v)
			for i := 0; i < v.Len(); i++ {
				w.value(v.Index(i))
			}
			return
		}
		n, ok := w.count()
		if !ok {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		out := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			w.value(out.Index(i))
		}
		v.Set(out)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.value(v.Index(i))
		}
	case reflect.Map:
		w.mapValue(v)
	case reflect.Struct:
		t := v.Type()
		if t == retiredType {
			var b bool
			if w.c.Bool(&b); b {
				w.failf("wiretest: a retired slot holds true")
			}
			return
		}
		for i := 0; i < t.NumField(); i++ {
			// A retired slot has no value to reach, so it may be unexported.
			if f := t.Field(i); f.PkgPath != "" && f.Type != retiredType {
				w.failf("wiretest: unexported field %s.%s", t, t.Field(i).Name)
				return
			}
			w.value(v.Field(i))
		}
	default:
		w.failf("wiretest: unsupported kind %s (%s)", v.Kind(), v.Type())
	}
}

// mapValue codes a map in sorted key order, so that equal maps always
// produce equal bytes whatever their insertion history.
func (w *walk) mapValue(v reflect.Value) {
	t := v.Type()
	var less func(a, b reflect.Value) bool
	switch t.Key().Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		less = func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		less = func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	case reflect.String:
		less = func(a, b reflect.Value) bool { return a.String() < b.String() }
	default:
		w.failf("wiretest: unsupported map key kind %s", t.Key().Kind())
		return
	}
	if w.d == nil {
		w.head(v)
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
		for _, k := range keys {
			w.value(k)
			w.value(v.MapIndex(k))
		}
		return
	}
	n, ok := w.count()
	if !ok {
		v.Set(reflect.Zero(t))
		return
	}
	out := reflect.MakeMapWithSize(t, n)
	for i := 0; i < n && w.c.Err() == nil; i++ {
		key, val := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		w.value(key)
		w.value(val)
		out.SetMapIndex(key, val)
	}
	v.Set(out)
}

// registry maps stable names to concrete types for the interface slots of
// the oracle (EncodeAny / DecodeAny): the type tag a closed production
// codec (wire.Tagged) writes is the name registered here for its type.
var registry = struct {
	sync.RWMutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}{
	byName: map[string]reflect.Type{"[]string": reflect.TypeOf([]string(nil))},
	byType: map[reflect.Type]string{reflect.TypeOf([]string(nil)): "[]string"},
}

// Register binds a stable name to sample's concrete type so that values
// of that type cross an interface slot of the oracle. Duplicate names or
// types panic.
func Register(name string, sample any) {
	t := reflect.TypeOf(sample)
	registry.Lock()
	defer registry.Unlock()
	if prev, dup := registry.byName[name]; dup && prev != t {
		panic("wiretest: duplicate registration for name " + name)
	}
	if prev, dup := registry.byType[t]; dup && prev != name {
		panic("wiretest: type " + t.String() + " already registered as " + prev)
	}
	registry.byName[name] = t
	registry.byType[t] = name
}

// EncodeAny appends an interface value: its registered type name, then
// the value in the form its type defines. nil is an empty name.
func EncodeAny(e *wire.Encoder, x any) error {
	if x == nil {
		e.Str("")
		return nil
	}
	registry.RLock()
	name, ok := registry.byType[reflect.TypeOf(x)]
	registry.RUnlock()
	if !ok {
		return fmt.Errorf("wiretest: unregistered interface payload type %T", x)
	}
	e.Str(name)
	return Encode(e, x)
}

// DecodeAny reads a value EncodeAny wrote.
func DecodeAny(d *wire.Decoder) (any, error) {
	name := d.Str()
	if d.Err() != nil || name == "" {
		return nil, d.Err()
	}
	registry.RLock()
	t, ok := registry.byName[name]
	registry.RUnlock()
	if !ok {
		err := fmt.Errorf("wiretest: unknown interface payload type %q", name)
		wire.Decoding(d).Fail(err)
		return nil, err
	}
	v := reflect.New(t)
	if err := Decode(d, v.Interface()); err != nil {
		return nil, err
	}
	return v.Elem().Interface(), nil
}
