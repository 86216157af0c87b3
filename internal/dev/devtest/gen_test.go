package devtest

import (
	"testing"

	"govfm/internal/dev/clint"
	"govfm/internal/dev/plic"
)

// TestGenerationMovesOnEveryMutator: a machine that caches the interrupt
// lines re-derives them only when a device generation moves, so every
// CLINT and PLIC mutation that can change Pending must move it. Each row
// runs exactly one mutator on a device in a non-reset state; removing any
// single bump fails its row. mtime advancing (Clint.Advance) and plain
// register loads are the mutations that must not move it: the machine
// times the comparator crossings itself.
func TestGenerationMovesOnEveryMutator(t *testing.T) {
	newClint := func() *clint.Clint {
		c := clint.New(2)
		c.SetMtimecmp(1, 50)
		c.SetTime(10)
		return c
	}
	newPlic := func() *plic.Plic {
		p := plic.New(2)
		p.Store(plic.PriorityOff+4*3, 4, 2)
		p.Store(plic.EnableOff, 4, 1<<3)
		p.Raise(3)
		return p
	}
	for _, row := range []struct {
		name string
		dev  func() (gen func() uint64, mutate func())
		want bool // the generation must move
	}{
		{"clint store msip", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, func() { c.Store(clint.MsipOff+4, 4, 1) }
		}, true},
		{"clint store mtimecmp", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, func() { c.Store(clint.MtimecmpOff, 8, 20) }
		}, true},
		{"clint store mtime", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, func() { c.Store(clint.MtimeOff, 8, 99) }
		}, true},
		{"clint SetMsip", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, func() { c.SetMsip(0, true) }
		}, true},
		{"clint SetMtimecmp", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, func() { c.SetMtimecmp(0, 5) }
		}, true},
		{"clint SetTime", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, func() { c.SetTime(60) }
		}, true},
		{"clint Reset", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, c.Reset
		}, true},
		{"clint Restore", func() (func() uint64, func()) {
			c := newClint()
			s := clint.New(2).Checkpoint()
			return c.Gen, func() { c.Restore(s) }
		}, true},
		{"clint Advance", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, func() { c.Advance(100) }
		}, false},
		{"clint load", func() (func() uint64, func()) {
			c := newClint()
			return c.Gen, func() { c.Load(clint.MtimeOff, 8) }
		}, false},
		{"plic store", func() (func() uint64, func()) {
			p := newPlic()
			return p.Gen, func() { p.Store(plic.ContextOff, 4, 1) }
		}, true},
		{"plic claim", func() (func() uint64, func()) {
			p := newPlic()
			return p.Gen, func() {
				if irq, _ := p.Load(plic.ContextOff+4, 4); irq != 3 {
					t.Fatalf("claim returned %d, want 3", irq)
				}
			}
		}, true},
		{"plic Raise", func() (func() uint64, func()) {
			p := newPlic()
			return p.Gen, func() { p.Raise(5) }
		}, true},
		{"plic Lower", func() (func() uint64, func()) {
			p := newPlic()
			return p.Gen, func() { p.Lower(3) }
		}, true},
		{"plic Reset", func() (func() uint64, func()) {
			p := newPlic()
			return p.Gen, p.Reset
		}, true},
		{"plic Restore", func() (func() uint64, func()) {
			p := newPlic()
			s := plic.New(2).Checkpoint()
			return p.Gen, func() { p.Restore(s) }
		}, true},
		{"plic load threshold", func() (func() uint64, func()) {
			p := newPlic()
			return p.Gen, func() { p.Load(plic.ContextOff, 4) }
		}, false},
	} {
		gen, mutate := row.dev()
		before := gen()
		mutate()
		if moved := gen() != before; moved != row.want {
			t.Errorf("%s: generation moved = %v, want %v", row.name, moved, row.want)
		}
	}
}

// TestNextCrossing: the next MTIP change is the nearest comparator above
// mtime, or mtime wrapping to zero; comparators at or below mtime have
// already fired.
func TestNextCrossing(t *testing.T) {
	c := clint.New(3)
	if d, ok := c.NextCrossing(); !ok || d != ^uint64(0) {
		t.Errorf("reset CLINT: NextCrossing = %d, %v; want the all-ones comparators", d, ok)
	}
	for i := 0; i < 3; i++ {
		c.SetMtimecmp(i, 0)
	}
	if _, ok := c.NextCrossing(); ok {
		t.Errorf("mtime 0, every comparator 0: got a crossing")
	}
	c.SetTime(100)
	c.SetMtimecmp(0, 40)  // fired
	c.SetMtimecmp(1, 130) // 30 ahead
	c.SetMtimecmp(2, 110) // 10 ahead
	if d, ok := c.NextCrossing(); !ok || d != 10 {
		t.Errorf("NextCrossing = %d, %v; want 10, true", d, ok)
	}
	c.SetMtimecmp(1, 100)
	c.SetMtimecmp(2, 100)
	if d, ok := c.NextCrossing(); !ok || d != ^uint64(0)-99 {
		t.Errorf("every comparator fired: NextCrossing = %d, %v; want the wrap, 2^64-100", d, ok)
	}
}
