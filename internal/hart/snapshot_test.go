package hart

import (
	"math/rand"
	"reflect"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/rv"
)

// perturb scrambles one hart's architectural state with seeded randomness —
// the same surface the fault injector attacks.
func perturb(rng *rand.Rand, h *Hart) {
	for i := 1; i < 32; i++ {
		if rng.Intn(2) == 0 {
			h.Regs[i] ^= 1 << rng.Intn(64)
		}
	}
	h.PC = rng.Uint64() &^ 3
	h.Mode = rv.Mode(rng.Intn(3))
	h.Cycles += uint64(rng.Intn(1000))
	h.Instret += uint64(rng.Intn(1000))
	h.SInstret += uint64(rng.Intn(1000))
	h.Waiting = rng.Intn(2) == 0
	c := &h.CSR
	for _, p := range []*uint64{
		&c.Mstatus, &c.Medeleg, &c.Mideleg, &c.Mie, &c.Mtvec, &c.Mscratch,
		&c.Mepc, &c.Mcause, &c.Mtval, &c.Stvec, &c.Sscratch, &c.Sepc,
		&c.Scause, &c.Stval, &c.Satp,
	} {
		*p ^= rng.Uint64()
	}
	for k := range c.Custom {
		c.Custom[k] = rng.Uint64()
	}
	for i := 0; i < c.PMP.NumEntries(); i++ {
		c.PMP.ForceAddr(i, rng.Uint64()&rv.Mask(54))
		c.PMP.ForceCfg(i, byte(rng.Intn(256)))
	}
}

// TestSnapshotRoundTrip is the property behind every replay in the
// differential and chaos harnesses: LoadImageState(Snapshot()) is the
// identity, no matter how the state was scrambled in between.
func TestSnapshotRoundTrip(t *testing.T) {
	m, h := run(t, 500, func(a *asm.Asm) {
		a.Li(asm.A0, 1)
		a.Csrw(rv.CSRMscratch, asm.A0)
		a.Wfi() // park so run() returns with live, non-trivial state
	})
	snapshot := func() *Image {
		img, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	load := func(img *Image) {
		if err := m.LoadImageState(img); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(0xC0FFEE))
	for iter := 0; iter < 25; iter++ {
		before := snapshot()
		perturb(rng, h)
		m.Clint.SetTime(rng.Uint64())
		m.Clint.SetMtimecmp(0, rng.Uint64())
		m.Clint.SetMsip(0, rng.Intn(2) == 0)
		load(before)
		after := snapshot()
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("iter %d: restore did not reproduce the snapshot\nbefore: %+v\nafter:  %+v",
				iter, before.Harts[0], after.Harts[0])
		}
		// A second restore from the same snapshot must also be stable
		// (LoadImageState must not alias snapshot-owned state into the hart).
		perturb(rng, h)
		load(before)
		if got := snapshot(); !reflect.DeepEqual(before, got) {
			t.Fatalf("iter %d: snapshot was corrupted by a restore/perturb cycle", iter)
		}
	}
}

// TestSnapshotIsDeep: mutating the hart after Snapshot must not change
// the image (the reference-typed members — PMP file, custom CSRs — have
// to be deep-copied).
func TestSnapshotIsDeep(t *testing.T) {
	m, h := run(t, 500, func(a *asm.Asm) {
		a.Wfi()
	})
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pmpAddr := s.Harts[0].CSR.PMP.Addr(0)
	h.CSR.PMP.ForceAddr(0, pmpAddr^0xFFFF)
	h.CSR.Mscratch ^= 1
	if s.Harts[0].CSR.PMP.Addr(0) != pmpAddr {
		t.Error("snapshot PMP file aliases the live hart")
	}
	for k := range h.CSR.Custom {
		h.CSR.Custom[k] ^= 1
		if s.Harts[0].CSR.Custom[k] == h.CSR.Custom[k] {
			t.Error("snapshot custom-CSR map aliases the live hart")
		}
		break
	}
}
