package hart

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"govfm/internal/asm"
	"govfm/internal/mem"
	"govfm/internal/rv"
)

// diffLeaf is one perturbable field reachable from an Image.
type diffLeaf struct {
	path     string
	excluded string // diffExcluded key the field sits under; "" if compared
	// shape marks a perturbation of the machine's shape rather than its
	// state: a slice grown by one element, a pointer swapped between nil
	// and non-nil, an extra map key. A live machine has fixed register
	// counts, harts and custom CSRs, so these cannot round-trip through
	// one.
	shape  bool
	mutate func() (undo func())
}

// writable returns an addressable, settable view of v, unexported fields
// included.
func writable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// setLeaf perturbs v by replacing it with nv and restores it on undo.
func setLeaf(v, nv reflect.Value) func() (undo func()) {
	return func() func() {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		v.Set(nv)
		return func() { v.Set(old) }
	}
}

// collectLeaves enumerates every leaf field under v (which must be
// addressable). altMem is a RAM snapshot that differs from v's.
func collectLeaves(path, excluded string, v reflect.Value, altMem *mem.RAMSnapshot, out *[]diffLeaf) {
	v = writable(v)
	add := func(m func() func()) {
		*out = append(*out, diffLeaf{path: path, excluded: excluded, mutate: m})
	}
	addShape := func(m func() func()) {
		*out = append(*out, diffLeaf{path: path, excluded: excluded, shape: true, mutate: m})
	}
	switch v.Kind() {
	case reflect.Bool:
		add(setLeaf(v, reflect.ValueOf(!v.Bool()).Convert(v.Type())))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		nv := reflect.New(v.Type()).Elem()
		nv.SetInt(v.Int() ^ 1)
		add(setLeaf(v, nv))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		nv := reflect.New(v.Type()).Elem()
		nv.SetUint(v.Uint() ^ 1)
		add(setLeaf(v, nv))
	case reflect.String:
		add(setLeaf(v, reflect.ValueOf(v.String()+"x").Convert(v.Type())))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			collectLeaves(path+"["+strconv.Itoa(i)+"]", excluded, v.Index(i), altMem, out)
		}
	case reflect.Slice:
		longer := reflect.Append(v.Slice3(0, v.Len(), v.Len()), reflect.Zero(v.Type().Elem()))
		addShape(setLeaf(v, longer))
		for i := 0; i < v.Len(); i++ {
			collectLeaves(path+"["+strconv.Itoa(i)+"]", excluded, v.Index(i), altMem, out)
		}
	case reflect.Map:
		kt, et := v.Type().Key(), v.Type().Elem()
		extra := reflect.ValueOf(^uint64(0)).Convert(kt)
		addShape(func() func() {
			v.SetMapIndex(extra, reflect.Zero(et))
			return func() { v.SetMapIndex(extra, reflect.Value{}) }
		})
		for _, k := range v.MapKeys() {
			k := k
			*out = append(*out, diffLeaf{path: path, excluded: excluded, mutate: func() func() {
				old := v.MapIndex(k)
				nv := reflect.New(et).Elem()
				nv.SetUint(old.Uint() ^ 1)
				v.SetMapIndex(k, nv)
				return func() { v.SetMapIndex(k, old) }
			}})
		}
	case reflect.Pointer:
		switch {
		case v.Type() == ramSnapshotType:
			add(setLeaf(v, reflect.ValueOf(altMem)))
		case v.IsNil():
			addShape(setLeaf(v, reflect.New(v.Type().Elem())))
		case excluded != "":
			// An excluded pointer may be shared with the other image (the
			// profile): swap it rather than write through it.
			add(setLeaf(v, reflect.New(v.Type().Elem())))
		default:
			addShape(setLeaf(v, reflect.Zero(v.Type())))
			collectLeaves(path, excluded, v.Elem(), altMem, out)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			p := name
			if path != "" {
				p = path + "." + name
			}
			ex := excluded
			if key := t.String() + "." + name; ex == "" {
				if _, ok := diffExcluded[key]; ok {
					ex = key
				}
			}
			collectLeaves(p, ex, v.Field(i), altMem, out)
		}
	default:
		panic("collectLeaves: unhandled kind " + v.Kind().String() + " at " + path)
	}
}

// bootedHImage boots a 2-hart H-profile machine with an IOPMP, runs a
// short program on both harts, and returns it with two independent
// snapshots of its state.
func bootedHImage(t *testing.T) (*Machine, *Image, *Image) {
	t.Helper()
	cfg := PremierP550()
	cfg.Harts = 2
	cfg.HasIOPMP = true
	m, err := NewMachine(cfg, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	a := asm.New(DramBase)
	a.Csrw(rv.CSRMscratch, asm.A0)
	a.Li(asm.T0, DramBase+0x2000)
	a.Slli(asm.T1, asm.A0, 3)
	a.Add(asm.T0, asm.T0, asm.T1)
	a.Sd(asm.A0, asm.T0, 0)
	a.Li(asm.T2, UartBase)
	a.Sb(asm.A0, asm.T2, 0)
	a.Wfi()
	if err := m.LoadImage(DramBase, a.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	m.Reset(DramBase)
	m.Run(100)
	want, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m, want, got
}

// TestDiffImagesComplete perturbs every leaf field reachable from an Image
// of a booted 2-hart H-profile machine, one at a time. Each compared field
// must be named by DiffImages; each field under a diffExcluded entry must
// be ignored; and the set of ignored entries must be exactly diffExcluded.
// State added anywhere under Image is therefore either compared or on the
// commented exclusion list.
func TestDiffImagesComplete(t *testing.T) {
	m, want, got := bootedHImage(t)
	if d := DiffImages(want, got); d != "" {
		t.Fatalf("two snapshots of one machine differ: %s", d)
	}
	if err := m.Bus.WriteBytes(DramBase+0x3000, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	altMem := m.Bus.Snapshot()

	var leaves []diffLeaf
	collectLeaves("", "", reflect.ValueOf(got).Elem(), altMem, &leaves)
	ignored := map[string]bool{}
	compared := 0
	for _, l := range leaves {
		undo := l.mutate()
		d := DiffImages(want, got)
		undo()
		if l.excluded != "" {
			if d != "" {
				t.Errorf("%s (under excluded %s) was compared: %s", l.path, l.excluded, d)
			}
			ignored[l.excluded] = true
			continue
		}
		compared++
		if !strings.HasPrefix(d, l.path+":") && !strings.HasPrefix(d, l.path+"[") {
			t.Errorf("perturbing %s: diff = %q, want it named", l.path, d)
		}
	}
	if d := DiffImages(want, got); d != "" {
		t.Fatalf("perturbations were not undone: %s", d)
	}
	var missing []string
	for k := range diffExcluded {
		if !ignored[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("exclusions that name no reachable field: %v", missing)
	}
	for _, p := range []string{"Harts[1].V", "Harts[1].ResValid", "Harts[1].CSR.mipSW",
		"Harts[1].CSR.Hgatp", "Harts[1].CSR.PMP.addr[0]", "Plic.Enable[1]", "Uart.Tx", "IOPMP.Cfg", "Mem"} {
		found := false
		for _, l := range leaves {
			found = found || (l.path == p && l.excluded == "")
		}
		if !found {
			t.Errorf("leaf %s not enumerated as compared", p)
		}
	}
	t.Logf("%d leaves: %d compared, %d under %d exclusions", len(leaves), compared,
		len(leaves)-compared, len(ignored))
}

// TestDiffImagesFrozenClock: the cycle remainder is compared while the
// wall clock runs and ignored when CyclesPerTick is zero.
func TestDiffImagesFrozenClock(t *testing.T) {
	_, want, got := bootedHImage(t)
	got.TimeRemainder ^= 1
	if d := DiffImages(want, got); !strings.HasPrefix(d, "TimeRemainder:") {
		t.Errorf("running clock: diff = %q, want TimeRemainder named", d)
	}
	frozen := *want.Cfg
	frozen.CyclesPerTick = 0
	want.Cfg, got.Cfg = &frozen, &frozen
	if d := DiffImages(want, got); d != "" {
		t.Errorf("frozen clock: diff = %q, want the remainder ignored", d)
	}
}

// TestSnapshotCapturesEveryField is the capture side of the image diff.
// DiffImages compares everything an Image holds, but an oracle that
// captures with the same Machine.Snapshot cannot see state that Snapshot
// fails to capture (or LoadImageState fails to install) when nothing reads
// it later. So for every compared leaf of a booted 2-hart H-profile image,
// one at a time: perturb it, install the image into the live machine,
// snapshot the machine again, and require the new image to equal the
// perturbed one. Shape perturbations (see diffLeaf.shape) are skipped;
// element-wise perturbations still cover the slices and maps they grow.
func TestSnapshotCapturesEveryField(t *testing.T) {
	m, _, img := bootedHImage(t)
	if err := m.Bus.WriteBytes(DramBase+0x3000, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	altMem := m.Bus.Snapshot()

	var leaves []diffLeaf
	collectLeaves("", "", reflect.ValueOf(img).Elem(), altMem, &leaves)
	checked := 0
	for _, l := range leaves {
		if l.excluded != "" || l.shape {
			continue
		}
		undo := l.mutate()
		if err := m.LoadImageState(img); err != nil {
			// The DRAM size is the one scalar that is machine shape.
			if l.path != "DramSize" {
				t.Errorf("perturbing %s: LoadImageState: %v", l.path, err)
			}
			undo()
			continue
		}
		again, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		d := DiffImages(img, again)
		undo()
		if d != "" {
			t.Errorf("perturbing %s: the state does not survive LoadImageState + Snapshot: %s", l.path, d)
		}
		checked++
	}
	for _, p := range []string{"Harts[1].ResValid", "Plic.Enable[1]"} {
		found := false
		for _, l := range leaves {
			found = found || (l.path == p && l.excluded == "" && !l.shape)
		}
		if !found {
			t.Errorf("leaf %s not checked", p)
		}
	}
	t.Logf("%d leaves round-tripped through a live machine", checked)
}
