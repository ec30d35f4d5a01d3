package wiretest

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// SameAsValue holds wire.Elem and wire.Elems to their definition for one
// type: 200 seeded values from gen each encode to exactly the bytes
// Encoder.Value gives them and decode back equal, alone and as a slice
// (nil, empty and full). typed is what wire.Typed must say of T — true
// for a type that is meant to stay off the reflective walk, such as a
// struct with a field list (wire.Coder), whose list this is the test of.
func SameAsValue[T any](t testing.TB, typed bool, gen func(*rand.Rand) T) {
	t.Helper()
	var zero T
	if wire.Typed[T]() != typed {
		t.Errorf("%T: wire.Typed is %v, want %v", zero, !typed, typed)
	}
	check := func(what string, v any, code func(*wire.Codec), back any, decode func(*wire.Codec)) {
		t.Helper()
		want, got := wire.NewEncoder(), wire.NewEncoder()
		if err := want.Encode(v); err != nil {
			t.Fatalf("%T: Value refuses %v: %v", zero, v, err)
		}
		c := wire.Encoding(got)
		if code(c); c.Err() != nil {
			t.Fatalf("%T: %s refuses %v: %v", zero, what, v, c.Err())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%T: %s writes %x for %+v, Value writes %x", zero, what, got.Bytes(), v, want.Bytes())
		}
		d := wire.NewDecoder(got.Bytes())
		c = wire.Decoding(d)
		if decode(c); c.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("%T: %s decode of %+v: %v, %d bytes left", zero, what, v, c.Err(), d.Remaining())
		}
		if out := reflect.ValueOf(back).Elem().Interface(); !reflect.DeepEqual(out, v) {
			t.Fatalf("%T: %s read %#v back as %#v", zero, what, v, out)
		}
	}
	r := rand.New(rand.NewSource(24))
	var all []T
	for i := 0; i < 200; i++ {
		v := gen(r)
		all = append(all, v)
		var back T
		check("Elem", v, func(c *wire.Codec) { wire.Elem(c, &v) }, &back, func(c *wire.Codec) { wire.Elem(c, &back) })
	}
	for _, s := range [][]T{nil, {}, all} {
		var back []T
		check("Elems", s, func(c *wire.Codec) { wire.Elems(c, &s) }, &back, func(c *wire.Codec) { wire.Elems(c, &back) })
	}
}

// Random draws a T: booleans, integers of every magnitude and sign the
// kind holds, short strings and byte slices (a byte slice sometimes nil),
// floats, and arrays and structs of those.
func Random[T any](r *rand.Rand) T {
	var v T
	randomize(r, reflect.ValueOf(&v).Elem())
	return v
}

func randomize(r *rand.Rand, v reflect.Value) {
	bits := r.Uint64() >> r.Intn(64)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(bits&1 == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(bits) << (64 - v.Type().Bits()) >> (64 - v.Type().Bits()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(bits << (64 - v.Type().Bits()) >> (64 - v.Type().Bits()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(r.NormFloat64())
	case reflect.String:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		v.SetString(string(b))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			randomize(r, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomize(r, Writable(v.Field(i)))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if r.Intn(8) != 0 {
				b := make([]byte, r.Intn(12))
				r.Read(b)
				v.SetBytes(b)
			}
			return
		}
		fallthrough
	default:
		panic(fmt.Sprintf("wiretest: no random %s", v.Type()))
	}
}
