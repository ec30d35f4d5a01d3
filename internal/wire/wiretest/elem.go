package wiretest

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// SameAsValue holds wire.Elem and wire.Elems to their definition for one
// type: 200 seeded values from gen each encode to exactly the bytes the
// oracle (Encode) gives them and decode back equal, alone and as a slice
// (nil, empty and full). For a struct with a field list (wire.Coder) this
// is the test of the list.
func SameAsValue[T any](t testing.TB, gen func(*rand.Rand) T) {
	t.Helper()
	var zero T
	if !wire.Typed[T]() {
		t.Fatalf("%T: wire.Typed is false: Elem has no route for it", zero)
	}
	check := func(what string, v any, code func(*wire.Codec), back any, decode func(*wire.Codec)) {
		t.Helper()
		want, got := wire.NewEncoder(), wire.NewEncoder()
		if err := Encode(want, v); err != nil {
			t.Fatalf("%T: the oracle refuses %v: %v", zero, v, err)
		}
		c := wire.Encoding(got)
		if code(c); c.Err() != nil {
			t.Fatalf("%T: %s refuses %v: %v", zero, what, v, c.Err())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%T: %s writes %x for %+v, the oracle writes %x", zero, what, got.Bytes(), v, want.Bytes())
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

// HashCovers holds the hashing direction (wire.Hashing) of Elem and Elems
// to every leaf of T, for a T of bools, integers, strings, arrays, slices
// and structs — a store element: two values the Filler fills alike hash
// alike, alone and as a slice, and changing any one leaf — zeroing it, or
// a string's bytes at its length — moves the sum. A field list that leaves
// a field out fails.
func HashCovers[T any](t testing.TB) {
	t.Helper()
	hashCovers(t, func(c *wire.Codec, v *T) { wire.Elem(c, v) })
	hashCovers(t, func(c *wire.Codec, s *[]T) { wire.Elems(c, s) })
}

func hashCovers[T any](t testing.TB, code func(*wire.Codec, *T)) {
	t.Helper()
	sum := func(v *T) uint64 {
		c := wire.Hashing(sim.NewHash())
		if code(&c, v); c.Err() != nil {
			t.Fatalf("%T: hashing: %v", *v, c.Err())
		}
		return c.Sum()
	}
	// fill fills a T and lists its leaves, which the Filler makes non-zero.
	fill := func() (v *T, paths []string, leaves []reflect.Value) {
		v = new(T)
		(&Filler{Leaf: func(path string, leaf reflect.Value) bool {
			if k := leaf.Kind(); k != reflect.Struct && k != reflect.Array && k != reflect.Slice {
				paths, leaves = append(paths, path), append(leaves, leaf)
			}
			return false
		}}).Fill(v)
		return v, paths, leaves
	}
	v, paths, _ := fill()
	want := sum(v)
	if v, _, _ = fill(); sum(v) != want {
		t.Fatalf("%T: two equal values hash apart", *v)
	}
	for i, path := range paths {
		v, _, leaves := fill()
		if leaf := leaves[i]; leaf.Kind() == reflect.String {
			leaf.SetString(strings.ToUpper(leaf.String())) // the bytes alone
		} else {
			leaf.SetZero()
		}
		if sum(v) == want {
			t.Errorf("changing %s leaves the hash where it was", path)
		}
	}
}

// SameAsAny holds code, the closed codec of an interface slot, to the
// oracle's interface form (EncodeAny: the registered name of the type,
// then the value): 200 seeded values from gen each encode to exactly the
// oracle's bytes and decode back equal.
func SameAsAny(t testing.TB, code func(*wire.Codec, *any), gen func(*rand.Rand) any) {
	t.Helper()
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		v := gen(r)
		want, got := wire.NewEncoder(), wire.NewEncoder()
		if err := EncodeAny(want, v); err != nil {
			t.Fatalf("the oracle refuses %#v: %v", v, err)
		}
		c := wire.Encoding(got)
		if code(c, &v); c.Err() != nil {
			t.Fatalf("the codec refuses %#v: %v", v, c.Err())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("the codec writes %x for %#v, the oracle writes %x", got.Bytes(), v, want.Bytes())
		}
		var back any
		d := wire.NewDecoder(got.Bytes())
		if code(wire.Decoding(d), &back); d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("decode of %#v: %v, %d bytes left", v, d.Err(), d.Remaining())
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("read %#v back as %#v", v, back)
		}
	}
}

// Random draws a T: booleans, integers of every magnitude and sign the
// kind holds, short strings and byte slices (a byte slice sometimes nil),
// floats, and arrays, structs, slices and maps of those (a slice or map
// sometimes nil, sometimes empty).
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
		if r.Intn(8) != 0 {
			n := r.Intn(5)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				randomize(r, v.Index(i))
			}
		}
	case reflect.Map:
		if r.Intn(8) != 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := r.Intn(5); i > 0; i-- {
				key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				randomize(r, key)
				randomize(r, val)
				v.SetMapIndex(key, val)
			}
		}
	default:
		panic(fmt.Sprintf("wiretest: no random %s", v.Type()))
	}
}
