package pmp

import (
	"math/rand"
	"testing"

	"govfm/internal/mem"
	"govfm/internal/rv"
)

// randomFile fills a PMP file with a random mix of OFF/TOR/NA4/NAPOT
// entries, biased toward addresses that cluster so regions overlap and
// partial matches occur.
func randomFile(rng *rand.Rand, n int) *File {
	f := NewFile(n)
	for i := 0; i < n; i++ {
		var addr uint64
		switch rng.Intn(3) {
		case 0:
			addr = rng.Uint64() >> (rng.Intn(40) + 10)
		case 1:
			addr = uint64(rng.Intn(1 << 16))
		case 2:
			addr = 0x80000000>>2 + uint64(rng.Intn(64))
		}
		f.ForceAddr(i, addr)
		cfg := byte(rng.Intn(256))
		if rng.Intn(4) == 0 {
			cfg &^= CfgL // bias toward unlocked
		}
		f.ForceCfg(i, cfg)
	}
	return f
}

// TestCheckFastMatchesScan is the differential oracle for the flattened
// segment lookup: on random register files and random accesses, the fast
// path must agree with the architectural scan byte for byte.
func TestCheckFastMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	accs := []mem.AccessType{mem.Read, mem.Write, mem.Exec}
	modes := []rv.Mode{rv.ModeM, rv.ModeS, rv.ModeU}
	sizes := []int{1, 2, 4, 8}
	for trial := 0; trial < 400; trial++ {
		f := randomFile(rng, []int{0, 1, 4, 16, 64}[rng.Intn(5)])
		f.SetFast(true)
		for q := 0; q < 200; q++ {
			var addr uint64
			switch rng.Intn(4) {
			case 0:
				addr = rng.Uint64()
			case 1:
				addr = rng.Uint64() >> (rng.Intn(40) + 8) << 2
			case 2:
				// Land near a region boundary to stress partial matches.
				i := rng.Intn(f.n + 1)
				if i < f.n {
					if lo, last, ok := f.Region(i); ok {
						if rng.Intn(2) == 0 {
							addr = lo - uint64(rng.Intn(8))
						} else {
							addr = last - uint64(rng.Intn(8))
						}
					}
				}
			case 3:
				addr = ^uint64(0) - uint64(rng.Intn(16)) // wrap-around shapes
			}
			size := sizes[rng.Intn(len(sizes))]
			acc := accs[rng.Intn(len(accs))]
			mode := modes[rng.Intn(len(modes))]
			got := f.Check(addr, size, acc, mode)
			want := f.checkScan(addr, size, acc, mode)
			if got != want {
				t.Fatalf("trial %d: Check(addr=%#x size=%d acc=%v mode=%v) fast=%v scan=%v\ncfg=%v\naddr=%v",
					trial, addr, size, acc, mode, got, want, f.cfg[:f.n], f.addr[:f.n])
			}
		}
	}
}

// TestCheckFastAfterMutation verifies the segment table is invalidated by
// every mutator, including the lock-ignoring Force variants and Reset.
func TestCheckFastAfterMutation(t *testing.T) {
	f := NewFile(16)
	f.SetFast(true)
	f.ForceAddr(0, NAPOTAddr(0x80000000, 0x1000))
	f.ForceCfg(0, CfgR|CfgW|CfgX|ANapot<<3)
	if !f.Check(0x80000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("expected allow inside NAPOT region")
	}
	// Revoke read permission; the cached segments must not be consulted
	// with stale permissions.
	f.ForceCfg(0, CfgW|CfgR&0|ANapot<<3)
	if f.Check(0x80000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("stale allow after ForceCfg revoked read")
	}
	f.ForceAddr(0, NAPOTAddr(0x90000000, 0x1000))
	f.ForceCfg(0, CfgR|ANapot<<3)
	if f.Check(0x80000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("stale region after ForceAddr move")
	}
	if !f.Check(0x90000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("moved region not visible")
	}
	f.Reset()
	if f.Check(0x90000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("stale match after Reset")
	}
}

// TestPageAllowsImpliesCheck is the oracle for the page fetch verdict: on
// random register files, whenever PageAllows grants a page, the
// architectural scan must allow every aligned fetch-sized access of that
// type and mode on it. Pages next to region boundaries are drawn often,
// so sub-page regions and split pages occur.
func TestPageAllowsImpliesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	accs := []mem.AccessType{mem.Read, mem.Write, mem.Exec}
	modes := []rv.Mode{rv.ModeM, rv.ModeS, rv.ModeU}
	granted := 0
	for trial := 0; trial < 300; trial++ {
		f := randomFile(rng, []int{0, 1, 4, 16}[rng.Intn(4)])
		for q := 0; q < 40; q++ {
			var page uint64
			if i := rng.Intn(f.n + 1); i < f.n && rng.Intn(2) == 0 {
				if lo, last, ok := f.Region(i); ok {
					page = []uint64{lo, last}[rng.Intn(2)] &^ 4095
				}
			} else {
				page = rng.Uint64() >> (rng.Intn(40) + 8) &^ 4095
			}
			acc := accs[rng.Intn(len(accs))]
			mode := modes[rng.Intn(len(modes))]
			if !f.PageAllows(page, acc, mode) {
				continue
			}
			granted++
			for off := uint64(0); off < 4096; off += 4 {
				if !f.checkScan(page+off, 4, acc, mode) {
					t.Fatalf("trial %d: PageAllows(%#x, %v, %v) but the scan denies %#x\ncfg=%v\naddr=%v",
						trial, page, acc, mode, page+off, f.cfg[:f.n], f.addr[:f.n])
				}
			}
		}
	}
	if granted == 0 {
		t.Fatal("no page was ever granted")
	}
}

// TestPageAllowsSplitPage: a page split by a sub-page region gets no
// verdict even where both parts allow the access, and a whole page inside
// one region does.
func TestPageAllowsSplitPage(t *testing.T) {
	f := NewFile(4)
	f.ForceAddr(0, NAPOTAddr(0x80000100, 0x100))
	f.ForceCfg(0, CfgR|CfgX|ANapot<<3)
	f.ForceAddr(1, NAPOTAddr(0x80000000, 0x10000))
	f.ForceCfg(1, CfgR|CfgW|CfgX|ANapot<<3)
	if f.PageAllows(0x80000000, mem.Exec, rv.ModeS) {
		t.Error("page split by entry 0 got a verdict")
	}
	if !f.PageAllows(0x80001000, mem.Exec, rv.ModeS) {
		t.Error("page wholly inside entry 1 got no verdict")
	}
	if f.PageAllows(0x80010000, mem.Exec, rv.ModeS) {
		t.Error("S-mode page outside every entry got a verdict")
	}
	if !f.PageAllows(0x80010000, mem.Exec, rv.ModeM) {
		t.Error("M-mode page outside every entry got no verdict")
	}
}

// BenchmarkCheck compares the scan and flattened lookups on a file shaped
// like the monitor's world-switch PMP programming (a few active regions).
func BenchmarkCheck(b *testing.B) {
	build := func(fast bool) *File {
		f := NewFile(16)
		f.ForceAddr(0, NAPOTAddr(0x80000000, 0x40000))
		f.ForceCfg(0, ANapot<<3) // deny firmware region to lower modes
		f.ForceAddr(1, NAPOTAddr(0x80000000, 0x8000000))
		f.ForceCfg(1, CfgR|CfgW|CfgX|ANapot<<3)
		f.ForceAddr(2, ^uint64(0))
		f.ForceCfg(2, CfgR|CfgW|ANapot<<3)
		f.SetFast(fast)
		return f
	}
	for _, cfg := range []struct {
		name string
		fast bool
	}{{"scan", false}, {"fast", true}} {
		f := build(cfg.fast)
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Check(0x80100000+uint64(i%4096)*8, 8, mem.Read, rv.ModeS)
			}
		})
	}
}
