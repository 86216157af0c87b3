package mem

import (
	"sync"
	"testing"
)

// newTestBus returns a bus with one RAM region spanning several chunks.
func newTestBus(t *testing.T) *Bus {
	t.Helper()
	b := NewBus()
	if err := b.AddRAM(0x8000_0000, 8<<20); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotForkIsolation(t *testing.T) {
	parent := newTestBus(t)
	parent.Store(0x8000_0000, 8, 0x1111)
	parent.Store(0x8040_0000, 8, 0x2222) // second chunk
	snap := parent.Snapshot()

	child := newTestBus(t)
	if err := child.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	// Child sees the snapshot content.
	if v, _ := child.Load(0x8000_0000, 8); v != 0x1111 {
		t.Fatalf("child initial = %#x, want 0x1111", v)
	}
	// Parent writes after the snapshot must not leak into the child, even
	// on the very pages the snapshot shares.
	parent.Store(0x8000_0000, 8, 0xAAAA)
	if v, _ := child.Load(0x8000_0000, 8); v != 0x1111 {
		t.Fatalf("parent write leaked into child: %#x", v)
	}
	// Child writes must not leak into the parent.
	child.Store(0x8040_0000, 8, 0xBBBB)
	if v, _ := parent.Load(0x8040_0000, 8); v != 0x2222 {
		t.Fatalf("child write leaked into parent: %#x", v)
	}
	// A second child of the same snapshot sees pristine snapshot state.
	child2 := newTestBus(t)
	if err := child2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := child2.Load(0x8000_0000, 8); v != 0x1111 {
		t.Fatalf("second child = %#x, want 0x1111", v)
	}
	if v, _ := child2.Load(0x8040_0000, 8); v != 0x2222 {
		t.Fatalf("second child = %#x, want 0x2222", v)
	}
}

func TestSnapshotOfSnapshotChain(t *testing.T) {
	b := newTestBus(t)
	b.Store(0x8000_0000, 8, 1)
	s1 := b.Snapshot()
	b.Store(0x8000_0000, 8, 2)
	s2 := b.Snapshot()
	b.Store(0x8000_0000, 8, 3)

	for i, want := range map[*RAMSnapshot]uint64{s1: 1, s2: 2} {
		c := newTestBus(t)
		if err := c.LoadSnapshot(i); err != nil {
			t.Fatal(err)
		}
		if v, _ := c.Load(0x8000_0000, 8); v != want {
			t.Fatalf("snapshot chain: got %#x want %#x", v, want)
		}
	}
	if v, _ := b.Load(0x8000_0000, 8); v != 3 {
		t.Fatalf("origin = %v, want 3", v)
	}
}

func TestLoadSnapshotLayoutMismatch(t *testing.T) {
	b := newTestBus(t)
	s := b.Snapshot()
	other := NewBus()
	if err := other.AddRAM(0x8000_0000, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadSnapshot(s); err == nil {
		t.Fatal("layout mismatch must be rejected")
	}
	empty := NewBus()
	if err := empty.LoadSnapshot(s); err == nil {
		t.Fatal("missing region must be rejected")
	}
}

func TestTouchedPagesAccounting(t *testing.T) {
	b := newTestBus(t)
	b.Snapshot()
	if b.TouchedPages() != 0 {
		t.Fatalf("touched after snapshot = %d", b.TouchedPages())
	}
	b.Store(0x8000_0000, 8, 1)
	b.Store(0x8000_0FF8, 8, 2) // same page
	b.Store(0x8000_1000, 8, 3) // next page
	if got := b.TouchedPages(); got != 2 {
		t.Fatalf("touched = %d, want 2", got)
	}
	s := b.Snapshot()
	if b.TouchedPages() != 0 {
		t.Fatalf("touched must reset on snapshot")
	}
	if s.Pages() != 2 {
		t.Fatalf("snapshot pages = %d, want 2", s.Pages())
	}
	// First write after the snapshot breaks a copy off the sealed page.
	pre := b.COWCopies()
	b.Store(0x8000_0000, 8, 4)
	if b.COWCopies() != pre+1 {
		t.Fatalf("COWCopies = %d, want %d", b.COWCopies(), pre+1)
	}
}

func TestCrossPageAccesses(t *testing.T) {
	b := newTestBus(t)
	// An 8-byte store straddling a page boundary (hardware-handled
	// misalignment) must round-trip, including across the COW break.
	addr := uint64(0x8000_0FFC)
	if !b.Store(addr, 8, 0x1122334455667788) {
		t.Fatal("cross-page store failed")
	}
	if v, ok := b.Load(addr, 8); !ok || v != 0x1122334455667788 {
		t.Fatalf("cross-page load = %#x", v)
	}
	snap := b.Snapshot()
	b.Store(addr, 8, 0x99AABBCCDDEEFF00)
	c := newTestBus(t)
	if err := c.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Load(addr, 8); v != 0x1122334455667788 {
		t.Fatalf("child cross-page = %#x", v)
	}
	// Reads of never-touched pages are zero without materializing them.
	if v, ok := b.Load(0x8070_0000, 8); !ok || v != 0 {
		t.Fatalf("untouched page load = %#x ok=%v", v, ok)
	}
	if b.TouchedPages() != 2 {
		t.Fatalf("load materialized a page: touched=%d", b.TouchedPages())
	}
}

// TestConcurrentForkFamily is the COW race gate: a parent and several
// children forked from one snapshot all execute at once, the parent
// breaking pages off the very backing the children are reading. Run under
// -race this proves the fork family shares no mutable state.
func TestConcurrentForkFamily(t *testing.T) {
	parent := newTestBus(t)
	for pg := uint64(0); pg < 64; pg++ {
		parent.Store(0x8000_0000+pg<<12, 8, pg+1)
	}
	snap := parent.Snapshot()

	const children = 4
	var wg sync.WaitGroup
	for c := 0; c < children; c++ {
		child := newTestBus(t)
		if err := child.LoadSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(b *Bus, id uint64) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				for pg := uint64(0); pg < 64; pg++ {
					if v, _ := b.Load(0x8000_0000+pg<<12, 8); v != pg+1 && v != id {
						t.Errorf("child saw torn value %#x", v)
						return
					}
				}
				b.Store(0x8000_0000+(id+uint64(iter))%64<<12, 8, id)
			}
		}(child, uint64(1000+c))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 200; iter++ {
			for pg := uint64(0); pg < 64; pg++ {
				parent.Store(0x8000_0000+pg<<12, 8, uint64(iter)<<32|pg)
			}
		}
	}()
	wg.Wait()
}

// TestRAMSnapshotFirstDiff: the page walk finds the lowest differing byte,
// treats a materialized zero page as equal to an untouched one, and
// reports a layout mismatch at the region base.
func TestRAMSnapshotFirstDiff(t *testing.T) {
	a := newTestBus(t)
	a.Store(0x8000_0010, 8, 0x1122)
	s0 := a.Snapshot()
	if addr, ok := s0.FirstDiff(a.Snapshot()); ok {
		t.Fatalf("a snapshot differs from its own copy at %#x", addr)
	}

	b := newTestBus(t)
	b.Store(0x8000_0010, 8, 0x1122)
	b.Store(0x8050_0000, 8, 0) // a zero page materialized on one side only
	if addr, ok := s0.FirstDiff(b.Snapshot()); ok {
		t.Fatalf("zero page counted as a difference at %#x", addr)
	}
	b.Store(0x8060_0003, 1, 7)
	b.Store(0x8070_0000, 1, 9)
	if addr, ok := s0.FirstDiff(b.Snapshot()); !ok || addr != 0x8060_0003 {
		t.Fatalf("FirstDiff = %#x/%v, want 0x80600003", addr, ok)
	}

	c := NewBus()
	if err := c.AddRAM(0x8000_0000, 4<<20); err != nil {
		t.Fatal(err)
	}
	if addr, ok := s0.FirstDiff(c.Snapshot()); !ok || addr != 0x8000_0000 {
		t.Fatalf("layout mismatch: FirstDiff = %#x/%v, want the region base", addr, ok)
	}
}
