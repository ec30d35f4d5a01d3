// Package wire is the deterministic binary codec under the on-disk
// image format (internal/image) and the persistent store images
// (internal/memlog). It is a small, reflection-driven, type-directed
// codec: the encoder and decoder agree on the Go type of every value
// out of band (the decode site names the type), so the stream carries
// no schema, and encoding the same value twice always yields the same
// bytes — map entries are emitted in sorted key order, struct fields in
// declaration order, and there is no source of nondeterminism (no
// timestamps, no pointer identity, no randomized iteration).
//
// Only data can cross the wire: bools, integers (any named kind),
// floats, strings, byte slices, slices, arrays, maps with ordered key
// kinds, and structs whose fields are all exported. Functions,
// channels, pointers and unsafe kinds are rejected with an error —
// callers degrade (fail the encode) rather than silently drop state.
//
// Interface-typed values go through Any, which prefixes the payload with
// a registered type name. Packages register their interface payload
// types with Register at init time.
//
// Types with unexported fields list them once, over a Codec (codec.go):
// the same list encodes and decodes. Containers of many values of one
// type code them through Elem and Elems (elem.go), which give the
// primitive kinds and structs with a field list the bytes Value gives
// them without the reflection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
)

// Encoder appends values to an in-memory buffer.
type Encoder struct {
	buf   []byte
	codec Codec // what Encoding returns: no allocation of its own
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Reset truncates the buffer for reuse, keeping the backing array.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded stream. The slice aliases the encoder's
// buffer; it is valid until the next write.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow makes room for n more bytes, so that a writer who knows what is
// coming — a size computed up front, or a count of elements that take at
// least a byte each — pays for one buffer instead of the regrowths of
// append. An encoder with room already gets nothing. One without gets
// what is asked for, rounded up to what the allocator hands out anyway
// (the few bytes that follow a large element then fit too), and at least
// twice what it had, so many small calls stay linear: append alone
// regrows a large buffer by a quarter at a time, which allocates five
// times the final size in all.
func (e *Encoder) Grow(n int) {
	if n > cap(e.buf)-len(e.buf) {
		e.buf = slices.Grow(e.buf, max(n, cap(e.buf)))
	}
}

// Bool appends a single-byte boolean.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) {
	e.buf = binary.AppendUvarint(e.buf, u)
}

// Varint appends a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// U32 appends a fixed-width little-endian uint32.
func (e *Encoder) U32(u uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, u)
}

// U64 appends a fixed-width little-endian uint64.
func (e *Encoder) U64(u uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, u)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice. nil and empty are
// distinguished so decode reproduces the original exactly.
func (e *Encoder) Blob(b []byte) {
	if b == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(b)) + 1)
	e.buf = append(e.buf, b...)
}

// Decoder consumes a stream produced by Encoder. Errors are sticky:
// after the first malformed read every subsequent read reports it, so
// call sites can decode a whole record and check Err once.
type Decoder struct {
	buf   []byte
	off   int
	err   error
	codec Codec // what Decoding returns: no allocation of its own
}

// NewDecoder returns a decoder over buf. Decoded strings and byte
// slices are copied out of buf; the one read that aliases it is Take, so
// a caller who has used Take (the framing layers, and the disk image for
// its blocks) must leave buf alone for as long as what Take returned
// lives. Everyone else may recycle buf once decoding completes.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

var errTruncated = errors.New("wire: truncated stream")

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(errTruncated)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail(fmt.Errorf("wire: bad bool byte %d", b))
		return false
	}
	return b == 1
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return u
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return v
}

// U32 reads a fixed-width uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail(errTruncated)
		return 0
	}
	u := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return u
}

// U64 reads a fixed-width uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(errTruncated)
		return 0
	}
	u := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return u
}

// take consumes n bytes, validating against the remaining length.
func (d *Decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(errTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	return string(d.take(d.Uvarint()))
}

// Take consumes exactly n bytes and returns them WITHOUT copying — the
// slice aliases the decoder's buffer. It exists for framing layers
// that carve whole sub-payloads out of a stream and hand them to
// sub-decoders; use Blob for ordinary length-prefixed byte fields.
func (d *Decoder) Take(n int) []byte {
	if n < 0 {
		d.fail(fmt.Errorf("wire: negative Take length %d", n))
		return nil
	}
	return d.take(uint64(n))
}

// Blob reads a length-prefixed byte slice (a copy, never aliasing the
// decoder's buffer).
func (d *Decoder) Blob() []byte {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	b := d.take(n - 1)
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Value encodes v by its reflect type. Supported kinds: bool, all
// integer kinds, float32/64, string, slices, arrays, maps with bool/
// integer/string keys, and structs with only exported fields.
func (e *Encoder) Value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		e.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.Varint(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.Uvarint(v.Uint())
	case reflect.Float32:
		e.U32(math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		e.U64(math.Float64bits(v.Float()))
	case reflect.String:
		e.Str(v.String())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.IsNil() {
				e.Uvarint(0)
				return nil
			}
			e.Uvarint(uint64(v.Len()) + 1)
			e.buf = append(e.buf, v.Bytes()...)
			return nil
		}
		if v.IsNil() {
			e.Uvarint(0)
			return nil
		}
		e.Uvarint(uint64(v.Len()) + 1)
		for i := 0; i < v.Len(); i++ {
			if err := e.Value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := e.Value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		return e.mapValue(v)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				return fmt.Errorf("wire: unexported field %s.%s", t, t.Field(i).Name)
			}
			if err := e.Value(v.Field(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("wire: unsupported kind %s (%s)", v.Kind(), v.Type())
	}
	return nil
}

// mapValue encodes a map in sorted key order so identical maps always
// produce identical bytes regardless of insertion history.
func (e *Encoder) mapValue(v reflect.Value) error {
	if v.IsNil() {
		e.Uvarint(0)
		return nil
	}
	keys := v.MapKeys()
	switch v.Type().Key().Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		sort.Slice(keys, func(i, j int) bool { return keys[i].Uint() < keys[j].Uint() })
	case reflect.String:
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	default:
		return fmt.Errorf("wire: unsupported map key kind %s", v.Type().Key().Kind())
	}
	e.Uvarint(uint64(len(keys)) + 1)
	for _, k := range keys {
		if err := e.Value(k); err != nil {
			return err
		}
		if err := e.Value(v.MapIndex(k)); err != nil {
			return err
		}
	}
	return nil
}

// count validates an element count read from the stream and returns it
// as the length to allocate. Every element occupies at least one byte
// (nothing zero-width crosses the wire), so a count beyond the bytes left
// is a lie: it fails the decode here, before anything is allocated or
// looped over, and a count that passes sizes its collection exactly — the
// input's length bounds it. The comparison is on the uint64: a count of
// 2^63 or more must not reach an int.
func (d *Decoder) count(n uint64) int {
	if n > uint64(d.Remaining()) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

// Value decodes into the settable value v, mirroring Encoder.Value.
func (d *Decoder) Value(v reflect.Value) error {
	if d.err != nil {
		return d.err
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(d.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := d.Varint()
		if v.OverflowInt(x) {
			return d.failf("wire: %d overflows %s", x, v.Type())
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x := d.Uvarint()
		if v.OverflowUint(x) {
			return d.failf("wire: %d overflows %s", x, v.Type())
		}
		v.SetUint(x)
	case reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(d.U32())))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(d.U64()))
	case reflect.String:
		v.SetString(d.Str())
	case reflect.Slice:
		n := d.Uvarint()
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return d.err
		}
		n--
		if v.Type().Elem().Kind() == reflect.Uint8 {
			raw := d.take(n)
			if d.err != nil {
				return d.err
			}
			out := reflect.MakeSlice(v.Type(), int(n), int(n))
			reflect.Copy(out, reflect.ValueOf(raw))
			v.Set(out)
			return nil
		}
		size := d.count(n)
		if d.err != nil {
			return d.err
		}
		out := reflect.MakeSlice(v.Type(), size, size)
		for i := 0; i < size; i++ {
			if err := d.Value(out.Index(i)); err != nil {
				return err
			}
		}
		v.Set(out)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := d.Value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		n := d.Uvarint()
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return d.err
		}
		n--
		size := d.count(n)
		if d.err != nil {
			return d.err
		}
		out := reflect.MakeMapWithSize(v.Type(), size)
		key := reflect.New(v.Type().Key()).Elem()
		val := reflect.New(v.Type().Elem()).Elem()
		for i := 0; i < size; i++ {
			key.Set(reflect.Zero(key.Type()))
			val.Set(reflect.Zero(val.Type()))
			if err := d.Value(key); err != nil {
				return err
			}
			if err := d.Value(val); err != nil {
				return err
			}
			out.SetMapIndex(key, val)
		}
		v.Set(out)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				return d.failf("wire: unexported field %s.%s", t, t.Field(i).Name)
			}
			if err := d.Value(v.Field(i)); err != nil {
				return err
			}
		}
	default:
		return d.failf("wire: unsupported kind %s (%s)", v.Kind(), v.Type())
	}
	return d.err
}

func (d *Decoder) failf(format string, args ...any) error {
	d.fail(fmt.Errorf(format, args...))
	return d.err
}

// Encode is the convenience wrapper: encode x (by its dynamic type)
// into e.
func (e *Encoder) Encode(x any) error {
	return e.Value(reflect.ValueOf(x))
}

// Decode is the convenience wrapper: decode into the pointed-to value.
func (d *Decoder) Decode(x any) error {
	v := reflect.ValueOf(x)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return d.failf("wire: Decode target must be a non-nil pointer, got %T", x)
	}
	return d.Value(v.Elem())
}

// registry maps stable names to concrete types for interface-valued
// payloads (Any/AnyValue).
var registry = struct {
	sync.RWMutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}{
	byName: map[string]reflect.Type{},
	byType: map[reflect.Type]string{},
}

// Register binds a stable name to sample's concrete type so values of
// that type can cross an interface boundary via Any. Call at init time;
// duplicate names or types panic (a programming error).
func Register(name string, sample any) {
	t := reflect.TypeOf(sample)
	registry.Lock()
	defer registry.Unlock()
	if prev, dup := registry.byName[name]; dup && prev != t {
		panic("wire: duplicate registration for name " + name)
	}
	if prev, dup := registry.byType[t]; dup && prev != name {
		panic("wire: type " + t.String() + " already registered as " + prev)
	}
	registry.byName[name] = t
	registry.byType[t] = name
}

func init() {
	Register("[]string", []string(nil))
	Register("string", "")
	Register("bool", false)
	Register("int64", int64(0))
}

// Any encodes an interface-typed value: a registered type-name tag
// followed by the type-directed payload. nil encodes as an empty tag.
func (e *Encoder) Any(x any) error {
	if x == nil {
		e.Str("")
		return nil
	}
	t := reflect.TypeOf(x)
	registry.RLock()
	name, ok := registry.byType[t]
	registry.RUnlock()
	if !ok {
		return fmt.Errorf("wire: unregistered interface payload type %s", t)
	}
	e.Str(name)
	return e.Value(reflect.ValueOf(x))
}

// Any decodes a value written by Encoder.Any.
func (d *Decoder) Any() (any, error) {
	name := d.Str()
	if d.err != nil {
		return nil, d.err
	}
	if name == "" {
		return nil, nil
	}
	registry.RLock()
	t, ok := registry.byName[name]
	registry.RUnlock()
	if !ok {
		return nil, d.failf("wire: unknown interface payload type %q", name)
	}
	v := reflect.New(t).Elem()
	if err := d.Value(v); err != nil {
		return nil, err
	}
	return v.Interface(), nil
}
