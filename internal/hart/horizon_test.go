package hart

import (
	"testing"

	"govfm/internal/asm"
	"govfm/internal/rv"
)

// timerIPIProg runs on every hart: it arms its own mtimecmp a few ticks
// ahead and spins, posting an IPI to the next hart every 64 iterations.
// The handler counts timer interrupts in S2 and re-arms the comparator,
// counts software interrupts in S3 and clears its own msip.
func timerIPIProg(harts int) []byte {
	a := asm.New(DramBase)
	a.La(asm.T0, "handler")
	a.Csrw(rv.CSRMtvec, asm.T0)
	a.Li(asm.S4, ClintBase+0x4000) // &mtimecmp[id]
	a.Slli(asm.T1, asm.A0, 3)
	a.Add(asm.S4, asm.S4, asm.T1)
	a.Li(asm.S5, ClintBase) // &msip[id]
	a.Slli(asm.T1, asm.A0, 2)
	a.Add(asm.S5, asm.S5, asm.T1)
	a.Addi(asm.T1, asm.A0, 1) // &msip[(id+1) % harts]
	a.Li(asm.T2, uint64(harts))
	a.Remu(asm.T1, asm.T1, asm.T2)
	a.Slli(asm.T1, asm.T1, 2)
	a.Li(asm.S6, ClintBase)
	a.Add(asm.S6, asm.S6, asm.T1)
	a.Li(asm.S7, ClintBase+0xBFF8) // &mtime
	a.Ld(asm.T0, asm.S7, 0)
	a.Addi(asm.T0, asm.T0, 3)
	a.Add(asm.T0, asm.T0, asm.A0)
	a.Sd(asm.T0, asm.S4, 0)
	a.Li(asm.T0, 1<<rv.IntMTimer|1<<rv.IntMSoft)
	a.Csrw(rv.CSRMie, asm.T0)
	a.Csrrsi(asm.X0, rv.CSRMstatus, 1<<rv.MstatusMIE)
	a.Label("loop")
	a.Addi(asm.S1, asm.S1, 1)
	a.Andi(asm.T4, asm.S1, 63)
	a.Bnez(asm.T4, "loop")
	a.Li(asm.T4, 1)
	a.Sw(asm.T4, asm.S6, 0)
	a.J("loop")

	a.Label("handler")
	a.Csrr(asm.T5, rv.CSRMcause)
	a.Andi(asm.T5, asm.T5, 0xFF)
	a.Li(asm.T6, rv.IntMTimer)
	a.Bne(asm.T5, asm.T6, "soft")
	a.Addi(asm.S2, asm.S2, 1)
	a.Ld(asm.T5, asm.S7, 0)
	a.Addi(asm.T5, asm.T5, 7)
	a.Sd(asm.T5, asm.S4, 0)
	a.Mret()
	a.Label("soft")
	a.Addi(asm.S3, asm.S3, 1)
	a.Sw(asm.X0, asm.S5, 0)
	a.Mret()
	return a.MustAssemble()
}

// TestHorizonTimerIPIMatchesPerStepLatch lands mtimecmp crossings and
// cross-hart IPIs mid-run on four harts. The event-horizon latch (fast
// path on) must leave the machine bit-identical to the per-step latch
// (fast path off), while relatching far less often than once per step.
func TestHorizonTimerIPIMatchesPerStepLatch(t *testing.T) {
	const harts, steps = 4, 60_000
	var imgs [2]*Image
	for i, fast := range []bool{false, true} {
		m := newTestMachine(t, harts)
		m.SetFastPath(fast)
		if err := m.LoadImage(DramBase, timerIPIProg(harts)); err != nil {
			t.Fatal(err)
		}
		m.Reset(DramBase)
		if n, halted := m.Run(steps); n != steps || halted {
			t.Fatalf("fast=%v: ran %d of %d steps, halted=%v", fast, n, steps, halted)
		}
		for _, h := range m.Harts {
			if h.Regs[asm.S2] == 0 || h.Regs[asm.S3] == 0 {
				t.Fatalf("fast=%v hart%d: %d timer and %d software interrupts, want both",
					fast, h.ID, h.Regs[asm.S2], h.Regs[asm.S3])
			}
		}
		if fast {
			if m.ev.relatches == 0 || m.ev.relatches > steps/4 {
				t.Errorf("%d relatches in %d steps, want a few per device change", m.ev.relatches, steps)
			}
			t.Logf("%d relatches in %d steps", m.ev.relatches, steps)
		}
		img, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = img
	}
	if d := DiffImages(imgs[0], imgs[1]); d != "" {
		t.Errorf("event horizon vs per-step latch: %s", d)
	}
}

// TestHorizonReinstallsAfterHartRestore restores one hart from a checkpoint
// whose hwLines are stale (MSIP, which no device asserts) while the
// devices and the cached lines are unchanged. The next step must see the
// devices' lines, as the per-step latch does, and take no interrupt.
func TestHorizonReinstallsAfterHartRestore(t *testing.T) {
	var imgs [2]*Image
	for i, fast := range []bool{false, true} {
		m := newTestMachine(t, 2)
		m.SetFastPath(fast)
		a := asm.New(DramBase)
		a.Label("loop")
		a.Addi(asm.S1, asm.S1, 1)
		a.J("loop")
		if err := m.LoadImage(DramBase, a.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		m.Reset(DramBase)
		m.Run(100)
		h := m.Harts[1]
		snap := h.Checkpoint()
		snap.CSR.hwLines = 1 << rv.IntMSoft
		snap.CSR.Mie = 1 << rv.IntMSoft
		snap.CSR.Mstatus |= 1 << rv.MstatusMIE
		h.Restore(snap)
		relatches := m.ev.relatches
		m.Run(1)
		if fast && m.ev.relatches != relatches {
			t.Fatalf("the step relatched; it must take the cached path to test the reinstall")
		}
		if h.Perf.Traps != 0 {
			t.Errorf("fast=%v: hart 1 took %d traps on stale lines", fast, h.Perf.Traps)
		}
		img, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = img
	}
	if d := DiffImages(imgs[0], imgs[1]); d != "" {
		t.Errorf("restored hart vs per-step latch: %s", d)
	}
}

// TestCyclesUntil pins the horizon arithmetic: a crossing d ticks ahead
// with rem cycles of the current tick consumed is d·cpt − rem cycles
// away, saturating at zero and overflowing to never.
func TestCyclesUntil(t *testing.T) {
	for _, c := range []struct{ d, cpt, rem, want uint64 }{
		{1, 375, 0, 375},
		{1, 375, 374, 1},
		{3, 375, 100, 1025},
		{1, 375, 375, 0}, // an unnormalized remainder: the crossing is due
		{1 << 60, 375, 0, never},
		{^uint64(0), 1, 0, ^uint64(0)},
	} {
		if got := cyclesUntil(c.d, c.cpt, c.rem); got != c.want {
			t.Errorf("cyclesUntil(%d, %d, %d) = %d, want %d", c.d, c.cpt, c.rem, got, c.want)
		}
	}
}
