package serve

// The explanation cache is keyed on fingerprint, a hand-kept digest of
// the semantic perfxplain.Options fields. A semantic option added to
// Options but not to the digest would silently alias cache entries and
// serve one configuration's answer to another, so every field must be
// classified: digested (setting it changes the fingerprint) or listed
// here as runtime-only.

import (
	"reflect"
	"testing"

	"perfxplain"
)

// runtimeOnly lists the Options fields fingerprint leaves out on
// purpose: they choose how an answer is computed — cores, shard count,
// transport, worker pool — never its bytes. The engine is
// byte-identical across all of them (pinned by the goldens and the
// shard equivalence suites), so digesting them would only split the
// cache.
var runtimeOnly = map[string]bool{
	"Parallelism":        true,
	"Shards":             true,
	"ShardWorkers":       true,
	"ShardWorkerCommand": true,
	"ShardAddrs":         true,
	"ShardToken":         true,
	"SharedPool":         true,
}

// setNonZero stores a non-zero value of v's kind; false for kinds the
// test does not know how to vary.
func setNonZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		return false
	}
	return true
}

func TestFingerprintCoversOptions(t *testing.T) {
	var base perfxplain.Options
	want := fingerprint(base, false, false)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		opt := base
		if !setNonZero(reflect.ValueOf(&opt).Elem().Field(i)) {
			t.Errorf("Options.%s has kind %s, which this test cannot vary; classify it by hand",
				name, typ.Field(i).Type.Kind())
			continue
		}
		changed := fingerprint(opt, false, false) != want
		switch {
		case runtimeOnly[name] && changed:
			t.Errorf("runtime-only Options.%s changes the fingerprint, splitting the cache", name)
		case !runtimeOnly[name] && !changed:
			t.Errorf("Options.%s is neither digested by fingerprint nor listed as runtime-only: "+
				"a semantic option missing from the key aliases cache entries", name)
		}
	}
	for name := range runtimeOnly {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("runtime-only list names Options.%s, which no longer exists", name)
		}
	}
}
