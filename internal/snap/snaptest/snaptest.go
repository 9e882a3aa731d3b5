// Package snaptest is the executable half of the snapshot contract: a
// package's test fills every field of a serialised struct, walks it out
// and back, and every field must either arrive or be on a checked-in
// list that says why it need not. Reflection lives here, never in a
// codec.
package snaptest

import (
	"reflect"
	"strings"
	"testing"

	"poise/internal/snap"
)

// Fill sets every field under *v that list does not name to a value no
// other field gets: numbers count up, bools are true, empty slices and
// maps get two elements, nil pointers to types of v's own package are
// allocated. What another package owns behind a pointer is left to the
// caller, who builds it through that package's API.
func Fill[T any](v *T, list map[string]string) {
	n := 0
	fill(reflect.ValueOf(v).Elem(), reflect.TypeFor[T]().PkgPath(), list, &n)
}

func fill(v reflect.Value, pkg string, list map[string]string, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Pointer:
		if v.Type().Elem().PkgPath() != pkg {
			return
		}
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fill(v.Elem(), pkg, list, n)
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		}
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), pkg, list, n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for range 2 {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(key, pkg, list, n)
			fill(val, pkg, list, n)
			v.SetMapIndex(key, val)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if _, named := list[v.Type().Name()+"."+v.Type().Field(i).Name]; !named {
				fill(open(v.Field(i)), pkg, list, n)
			}
		}
	}
}

// open lifts the read-only mark reflection puts on an unexported field.
func open(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Elem()
}

// Account walks *src out and back in over *dst, which the caller built
// the way a restoring side would (same constructor, same configuration).
// list names, as "Type.field", the fields of the package's types that
// are not wire fields, each with its reason: "derived: <what rebuilds
// it>", "config" or "scratch". Account fails t for every other field
// that does not arrive in dst as it left src, for one the two already
// agreed on before the walk (the test could not tell), and for a list
// entry that names no field of a type it met.
func Account[T any](t *testing.T, src, dst *T, walk func(*T, snap.Walk), list map[string]string) {
	t.Helper()
	pkg, met := reflect.TypeFor[T]().PkgPath(), map[string]bool{}
	a, b := reflect.ValueOf(src).Elem(), reflect.ValueOf(dst).Elem()
	differs, told := map[string]bool{}, map[string]bool{}
	each(reflect.TypeFor[T]().Name(), a, b, pkg, list, met, func(path string, same bool) {
		differs[path] = differs[path] || !same
	})
	for path, differs := range differs {
		if !differs {
			t.Errorf("%s: source and destination agree before the walk; fill it", path)
		}
	}
	w := snap.NewWriter()
	walk(src, snap.Out(w))
	r := snap.NewReader(w.Data())
	if walk(dst, snap.In(r)); r.Err() != nil || r.Len() != 0 {
		t.Fatalf("walk in: %v, %d bytes unread", r.Err(), r.Len())
	}
	each(reflect.TypeFor[T]().Name(), a, b, pkg, list, met, func(path string, same bool) {
		if !same && !told[path] {
			told[path] = true
			t.Errorf("%s is not restored by the walk and not on the list: walk it, or say it is derived, config or scratch", path)
		}
	})
	for name := range list {
		if typ, _, _ := strings.Cut(name, "."); met[typ] && !met[name] {
			t.Errorf("the list names %s, and %s has no such field", name, typ)
		}
	}
}

// each reports, for every unlisted field under a and b that belongs to a
// type of package pkg, whether the two hold the same thing.
func each(path string, a, b reflect.Value, pkg string, list map[string]string, met map[string]bool, report func(string, bool)) {
	switch {
	case a.Kind() == reflect.Struct && a.Type().PkgPath() == pkg:
		met[a.Type().Name()] = true
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Name() + "." + a.Type().Field(i).Name
			if _, named := list[name]; named {
				met[name] = true
			} else {
				each(name, open(a.Field(i)), open(b.Field(i)), pkg, list, met, report)
			}
		}
	case a.Kind() == reflect.Pointer && a.Type().Elem().PkgPath() == pkg && !a.IsNil() && !b.IsNil():
		each(path, a.Elem(), b.Elem(), pkg, list, met, report)
	case a.Kind() == reflect.Slice && a.Len() == b.Len() && a.Len() > 0:
		for i := 0; i < a.Len(); i++ {
			each(path, a.Index(i), b.Index(i), pkg, list, met, report)
		}
	default:
		report(path, equal(a, b))
	}
}

// equal compares two leaves: what has a walk of its own (another
// package's state) by the bytes it walks out to, anything else deeply.
func equal(a, b reflect.Value) bool {
	type walker interface{ Walk(snap.Walk) }
	if a.Kind() != reflect.Pointer {
		a, b = a.Addr(), b.Addr()
	}
	if wa, ok := a.Interface().(walker); ok && !a.IsNil() && !b.IsNil() {
		return string(Out(wa.Walk)) == string(Out(b.Interface().(walker).Walk))
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// Out walks out through walk and returns the bytes written.
func Out(walk func(snap.Walk)) []byte {
	w := snap.NewWriter()
	walk(snap.Out(w))
	return w.Data()
}

// In walks data in through walk and returns the walk's first error.
func In(walk func(snap.Walk), data []byte) error {
	r := snap.NewReader(data)
	walk(snap.In(r))
	return r.Err()
}

// CheckReset fills every field under *v but those list calls "config",
// calls reset on it and fails t unless *v is then reflect.DeepEqual to
// *fresh, which the caller built the way *v was built: a reset keeps
// configuration and gives back everything else as constructed. Each
// field that differs is reported.
func CheckReset[T any](t *testing.T, v, fresh *T, reset func(*T), list map[string]string) {
	t.Helper()
	kept := map[string]string{}
	for name, why := range list {
		if why == "config" {
			kept[name] = why
		}
	}
	Fill(v, kept)
	if reflect.DeepEqual(v, fresh) {
		t.Fatal("filling changed nothing (test precondition)")
	}
	reset(v)
	if reflect.DeepEqual(v, fresh) {
		return
	}
	told := false
	each(reflect.TypeFor[T]().Name(), reflect.ValueOf(v).Elem(), reflect.ValueOf(fresh).Elem(),
		reflect.TypeFor[T]().PkgPath(), kept, map[string]bool{}, func(path string, same bool) {
			if !same {
				told = true
				t.Errorf("%s is not what the constructor built after a reset", path)
			}
		})
	if !told {
		t.Errorf("a reset %T differs from a fresh one", v)
	}
}
