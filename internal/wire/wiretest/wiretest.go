// Package wiretest holds the test support of the one-field-list rule: the
// reflective oracle every field list is held to (value.go, SameAsValue),
// and a filler that gives every field of a value, unexported ones
// included, a distinct non-zero value, so that encode → decode →
// reflect.DeepEqual fails when a codec's field list misses one.
package wiretest

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Filler hands out distinct values. Leaf, when set, sees every value
// before the filler descends into it, with its path from the root
// ("MachineImage.procs[0].inbox[0].Aux"): it returns true once it has set
// the value itself — or has chosen to leave it zero, which is how a test
// names a field the codec leaves out on purpose. Interfaces have no
// default and must be taken by Leaf. A type that points to itself is
// filled one level deep: the inner value's own pointer stays nil.
type Filler struct {
	Leaf func(path string, v reflect.Value) bool
	n    int64
	open map[reflect.Type]int
}

// Fill sets everything reachable from the pointer p.
func (f *Filler) Fill(p any) {
	v := reflect.ValueOf(p).Elem()
	f.open = map[reflect.Type]int{v.Type(): 1}
	f.fill(v.Type().Name(), v)
}

func (f *Filler) next() int64 { f.n++; return f.n }

func (f *Filler) fill(path string, v reflect.Value) {
	if f.Leaf != nil && f.Leaf(path, v) {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(f.next())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.next()))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next()))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			f.fill(fmt.Sprintf("%s[%d]", path, i), s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(path+"[key]", key)
			f.fill(path+"[val]", val)
			m.SetMapIndex(key, val)
		}
		v.Set(m)
	case reflect.Pointer:
		t := v.Type().Elem()
		if f.open[t] == 2 {
			return
		}
		f.open[t]++
		p := reflect.New(t)
		f.fill(path, p.Elem())
		v.Set(p)
		f.open[t]--
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(path+"."+v.Type().Field(i).Name, Writable(v.Field(i)))
		}
	default:
		panic(fmt.Sprintf("wiretest: no value for %s (%s); Leaf must take it", path, v.Type()))
	}
}

// Writable returns a settable view of field, an addressable struct field
// that may be unexported.
func Writable(field reflect.Value) reflect.Value {
	return reflect.NewAt(field.Type(), unsafe.Pointer(field.UnsafeAddr())).Elem()
}
