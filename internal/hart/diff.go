package hart

import (
	"fmt"
	"reflect"
	"sort"

	"govfm/internal/mem"
)

// diffExcluded names every field DiffImages deliberately does not compare,
// keyed "package.Type.Field", with the reason. Everything else reachable
// from an Image is compared, so state added to Image, to a hart Snapshot,
// to CSRFile or to a device snapshot is covered without editing the diff.
// TestDiffImagesComplete perturbs every reachable field and requires the
// fields the diff ignores to be exactly this list.
var diffExcluded = map[string]string{
	// Tier and scheduler knobs: the equivalence gates vary exactly these
	// and ask whether the end state changed.
	"hart.Image.Sched":      "scheduler knob",
	"hart.Image.Quantum":    "scheduler knob",
	"hart.Image.FastPath":   "execution-tier knob",
	"hart.Image.Superblock": "execution-tier knob",
	// Machine shape: the profile both sides were built from.
	"hart.Image.Cfg":   "machine shape",
	"hart.CSRFile.cfg": "machine shape",
	// The host-only insides of a PMP file. The file is compared by its
	// entries (n, cfg, addr); these fields are derived from them or
	// belong to the host lookup.
	"pmp.File.decoded": "host cache: regions and segments derived from the entries",
	"pmp.File.lastSeg": "host cache: segment hint",
	"pmp.File.dirty":   "host cache: decoded tables stale",
	"pmp.File.id":      "host cache: content id",
	"pmp.File.issued":  "host cache: content id high-water mark",
	"pmp.File.views":   "host cache: recently seen views",
	"pmp.File.fast":    "execution-tier knob: flattened lookup or linear scan",
	"pmp.File.Perf":    "host counters",
}

// diffFrozenRemainder is compared only while the wall clock runs. Under a
// frozen clock (CyclesPerTick == 0) the cycle remainder never converts to
// mtime, so it is unobservable, and the two schedulers legitimately leave
// different values in it.
const diffFrozenRemainder = "hart.Image.TimeRemainder"

var ramSnapshotType = reflect.TypeOf((*mem.RAMSnapshot)(nil))

// DiffImages compares two machine images and returns the first differing
// field as "path: want=… got=…", or "" when they describe the same
// machine. Paths use Go field names, e.g. "Harts[1].CSR.Mscratch" or
// "Plic.Enable[0]"; RAM differences name the first differing address.
func DiffImages(want, got *Image) string {
	frozen := want.Cfg != nil && want.Cfg.CyclesPerTick == 0
	return diffValue("", reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem(), frozen)
}

func diffValue(path string, a, b reflect.Value, frozen bool) string {
	switch a.Kind() {
	case reflect.Bool, reflect.String, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
		reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: want=%#v got=%#v", path, a, b)
		}
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len want=%d got=%d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffValue(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), frozen); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len want=%d got=%d", path, a.Len(), b.Len())
		}
		keys := a.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].Uint() < keys[j].Uint() })
		for _, k := range keys {
			kp := fmt.Sprintf("%s[%#x]", path, k.Uint())
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return kp + ": missing"
			}
			if d := diffValue(kp, a.MapIndex(k), bv, frozen); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: want nil=%v got nil=%v", path, a.IsNil(), b.IsNil())
		}
		if a.Pointer() == b.Pointer() { // both nil, or one shared object
			return ""
		}
		if a.Type() == ramSnapshotType {
			ra := (*mem.RAMSnapshot)(a.UnsafePointer())
			rb := (*mem.RAMSnapshot)(b.UnsafePointer())
			if addr, ok := ra.FirstDiff(rb); ok {
				return fmt.Sprintf("%s: first difference at %#x", path, addr)
			}
			return ""
		}
		return diffValue(path, a.Elem(), b.Elem(), frozen)
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			key := t.String() + "." + t.Field(i).Name
			if _, skip := diffExcluded[key]; skip || frozen && key == diffFrozenRemainder {
				continue
			}
			p := t.Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			if d := diffValue(p, a.Field(i), b.Field(i), frozen); d != "" {
				return d
			}
		}
	default:
		panic(fmt.Sprintf("hart: DiffImages cannot compare %s of kind %s", path, a.Kind()))
	}
	return ""
}
