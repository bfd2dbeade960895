package ooo

import (
	"reflect"
	"testing"
)

// TestKeyCoversEveryExportedField perturbs each exported field of Config
// in turn and requires the canonical key to change. It is the dynamic
// counterpart of the keycover static analyzer (internal/lint): keycover
// proves every field is referenced by Key, this test proves the reference
// actually distinguishes values — together they keep the runner's
// artifact cache from ever serving one configuration's result for
// another.
func TestKeyCoversEveryExportedField(t *testing.T) {
	base, ok := (Config{}).Key()
	if !ok {
		t.Fatal("zero Config must be memoizable")
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Func || f.Type.Kind() == reflect.Interface {
			// The Tracer hook makes the config non-memoizable instead
			// of participating in the key; covered below.
			continue
		}
		var c Config
		if !perturb(reflect.ValueOf(&c).Elem().Field(i)) {
			t.Fatalf("do not know how to perturb field %s (%s); extend this test", f.Name, f.Type)
		}
		k, ok := c.Key()
		if !ok {
			t.Fatalf("perturbing %s unexpectedly made the config non-memoizable", f.Name)
		}
		if k == base {
			t.Errorf("Key() does not distinguish configurations differing in %s", f.Name)
		}
	}
}

// perturb sets v to a value the canonical key must distinguish from the
// zero configuration. 13 dodges every default the key canonicalizes
// (SegmentSize 1, Width 16, GShareBits/TargetBits 16).
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(13)
		return true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(13)
		return true
	case reflect.String:
		v.SetString("x")
		return true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() && perturb(v.Field(i)) {
				return true
			}
		}
	}
	return false
}

// TestKeyCanonicalizesDefaults pins the equivalences Key must preserve:
// spelled-out defaults share a key with the zero forms, and hooks make a
// config non-memoizable.
func TestKeyCanonicalizesDefaults(t *testing.T) {
	k0, _ := (Config{}).Key()
	k1, _ := (Config{SegmentSize: 1, Width: 16, GShareBits: 16, TargetBits: 16}).Key()
	if k0 != k1 {
		t.Errorf("explicit defaults changed the key:\n  %s\n  %s", k0, k1)
	}
	ci0, _ := (Config{Machine: CI}).Key()
	ci1, _ := (Config{Machine: CI, Reconv: Reconv{PostDom: true}}).Key()
	if ci0 != ci1 {
		t.Errorf("CI with implicit postdom reconvergence should share a key with the explicit form")
	}
	// The heuristics are documented as ignored when PostDom is set; the
	// canonical key must collapse them the same way the simulator does.
	pd0, _ := (Config{Reconv: Reconv{PostDom: true}}).Key()
	pd1, _ := (Config{Reconv: Reconv{PostDom: true, Return: true, Loop: true}}).Key()
	if pd0 != pd1 {
		t.Errorf("PostDom should mask the heuristic reconvergence bits in the key")
	}
	if _, ok := (Config{Tracer: NewJSONLTracer(nil)}).Key(); ok {
		t.Error("config with a Tracer must not be memoizable")
	}
	if _, ok := (Config{hookRecovery: func(*machine, pendingRec) {}}).Key(); ok {
		t.Error("config with a recovery hook must not be memoizable")
	}
}
