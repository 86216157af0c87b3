package hart

import (
	"strings"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/rv"
)

// schedNames enumerates both schedulers for table-driven tests.
var schedNames = []struct {
	name string
	kind SchedKind
}{
	{"seq", SchedSeq},
	{"par", SchedPar},
}

// bootResetProg dirties everything Reset must clear — a CSR, a locked PMP
// entry, an LR reservation, the CLINT comparator, the UART — then exits.
func bootResetProg() []byte {
	a := asm.New(DramBase)
	a.Li(asm.T0, 0xDEAD)
	a.Csrw(rv.CSRMscratch, asm.T0)
	// Lock PMP entry 0 over all of memory (NAPOT, L|X|W|R): only a reset
	// can clear a locked entry, so a weak Reset leaves it behind.
	a.Li(asm.T0, rv.Mask(53))
	a.Csrw(rv.CSRPmpaddr0, asm.T0)
	a.Li(asm.T0, 0x9F)
	a.Csrw(rv.CSRPmpcfg0, asm.T0)
	// Take an LR reservation.
	a.Li(asm.S0, DramBase+0x6000)
	a.LrD(asm.T1, asm.S0)
	// Program mtimecmp[0] and print one byte.
	a.Li(asm.T0, ClintBase+0x4000)
	a.Li(asm.T1, 123)
	a.Sd(asm.T1, asm.T0, 0)
	a.Li(asm.T0, UartBase)
	a.Li(asm.T1, 'A')
	a.Sb(asm.T1, asm.T0, 0)
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	return a.MustAssemble()
}

// TestResetFullMachineState is the boot-twice regression for the Reset
// bugfix: a second boot after Reset must be indistinguishable from the
// first — CSRs (including locked PMP entries), cycle counters, LR/SC
// reservations, and device state must all return to power-on values.
func TestResetFullMachineState(t *testing.T) {
	m := newTestMachine(t, 1)
	_ = m.LoadImage(DramBase, bootResetProg())
	m.Reset(DramBase)
	m.Run(1000)
	if ok, reason := m.Halted(); !ok || !strings.Contains(reason, "pass") {
		t.Fatalf("first boot: halted=%v reason=%q", ok, reason)
	}
	h := m.Harts[0]
	firstCycles, firstInstret := h.Cycles, h.Instret
	firstOut := m.Uart.Output()
	if firstOut != "A" {
		t.Fatalf("first boot uart = %q, want %q", firstOut, "A")
	}

	m.Reset(DramBase)

	if ok, _ := m.Halted(); ok {
		t.Error("reset must clear the machine halt latch")
	}
	if h.Cycles != 0 || h.Instret != 0 || h.SInstret != 0 {
		t.Errorf("reset left counters: cycles=%d instret=%d sinstret=%d",
			h.Cycles, h.Instret, h.SInstret)
	}
	if h.CSR.Mscratch != 0 {
		t.Errorf("reset left mscratch = %#x", h.CSR.Mscratch)
	}
	if h.CSR.PMP.Cfg(0) != 0 || h.CSR.PMP.Addr(0) != 0 {
		t.Errorf("reset left locked PMP entry: cfg=%#x addr=%#x",
			h.CSR.PMP.Cfg(0), h.CSR.PMP.Addr(0))
	}
	if h.resValid {
		t.Error("reset left an LR reservation")
	}
	if m.Clint.Time() != 0 {
		t.Errorf("reset left mtime = %d", m.Clint.Time())
	}
	if m.Clint.Mtimecmp(0) != ^uint64(0) {
		t.Errorf("reset left mtimecmp = %#x", m.Clint.Mtimecmp(0))
	}
	if m.Uart.Output() != "" {
		t.Errorf("reset left uart output %q", m.Uart.Output())
	}

	// Second boot: bit-identical to the first.
	m.Run(1000)
	if ok, reason := m.Halted(); !ok || !strings.Contains(reason, "pass") {
		t.Fatalf("second boot: halted=%v reason=%q", ok, reason)
	}
	if h.Cycles != firstCycles || h.Instret != firstInstret {
		t.Errorf("second boot diverged: cycles %d vs %d, instret %d vs %d",
			h.Cycles, firstCycles, h.Instret, firstInstret)
	}
	if m.Uart.Output() != firstOut {
		t.Errorf("second boot uart = %q, want %q", m.Uart.Output(), firstOut)
	}
}

// ipiProg builds a two-hart program where hart sender posts an MSIP IPI to
// hart receiver, which sleeps in WFI and raises a flag at flagAddr on wake.
func ipiProg(sender, receiver int, flagAddr uint64) []byte {
	a := asm.New(DramBase)
	a.Li(asm.T0, uint64(sender))
	a.BeqFar(asm.A0, asm.T0, "sender")
	// Receiver: enable MSIE, sleep, flag, hang.
	a.Li(asm.T0, 1<<rv.IntMSoft)
	a.Csrw(rv.CSRMie, asm.T0)
	a.Wfi()
	a.Li(asm.S0, flagAddr)
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.S0, 0)
	a.Label("hang")
	a.J("hang")
	a.Label("sender")
	for i := 0; i < 8; i++ {
		a.Nop()
	}
	a.Li(asm.T1, ClintBase+uint64(4*receiver))
	a.Li(asm.T2, 1)
	a.Sw(asm.T2, asm.T1, 0)
	a.Label("shang")
	a.J("shang")
	return a.MustAssemble()
}

// runIPI boots ipiProg under the given scheduler and returns the
// receiver's cycle count at the moment the wake flag becomes visible.
func runIPI(t *testing.T, kind SchedKind, sender, receiver int) uint64 {
	t.Helper()
	const flagAddr = DramBase + 0x3000
	m := newTestMachine(t, 2)
	m.Sched = kind
	m.Quantum = 64
	_ = m.LoadImage(DramBase, ipiProg(sender, receiver, flagAddr))
	m.Reset(DramBase)
	ok := m.RunUntil(func() bool {
		v, _ := m.Bus.Load(flagAddr, 8)
		return v == 1
	}, 100_000)
	if !ok {
		t.Fatalf("sched=%v sender=%d: receiver never woke from the IPI",
			kind, sender)
	}
	return m.Harts[receiver].Cycles
}

// TestIPIDeliverySymmetric is the regression for the interrupt-latch
// bugfix: hart 1's IPI to hart 0 must be observed with exactly the same
// latency as hart 0's IPI to hart 1. Before the fix the sequential
// scheduler latched hart lines asymmetrically within a machine step.
func TestIPIDeliverySymmetric(t *testing.T) {
	for _, s := range schedNames {
		t.Run(s.name, func(t *testing.T) {
			c01 := runIPI(t, s.kind, 0, 1)
			c10 := runIPI(t, s.kind, 1, 0)
			if c01 != c10 {
				t.Errorf("asymmetric IPI latency: hart0→hart1 woke at %d cycles, hart1→hart0 at %d",
					c01, c10)
			}
		})
	}
}

// wfiTimerProg arms each hart's own mtimecmp at a small tick count, sleeps
// in WFI on MTIE, and raises a per-hart flag on wake.
func wfiTimerProg(flagBase uint64) []byte {
	a := asm.New(DramBase)
	a.Li(asm.T0, ClintBase+0x4000)
	a.Slli(asm.T1, asm.A0, 3)
	a.Add(asm.T0, asm.T0, asm.T1)
	a.Li(asm.T2, 5)
	a.Sd(asm.T2, asm.T0, 0) // mtimecmp[id] = 5 ticks
	a.Li(asm.T0, 1<<rv.IntMTimer)
	a.Csrw(rv.CSRMie, asm.T0)
	a.Wfi()
	a.Li(asm.S0, flagBase)
	a.Slli(asm.T1, asm.A0, 3)
	a.Add(asm.S0, asm.S0, asm.T1)
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.S0, 0)
	a.Label("hang")
	a.J("hang")
	return a.MustAssemble()
}

// TestAllHartsWFIAdvancesTime checks that mtime keeps advancing when every
// hart is asleep in WFI: with all harts waiting on their timers the idle
// polls must still drive the shared wall clock forward until the
// comparators fire, under both schedulers.
func TestAllHartsWFIAdvancesTime(t *testing.T) {
	const flagBase = DramBase + 0x5000
	for _, s := range schedNames {
		t.Run(s.name, func(t *testing.T) {
			m := newTestMachine(t, 2)
			m.Sched = s.kind
			_ = m.LoadImage(DramBase, wfiTimerProg(flagBase))
			m.Reset(DramBase)
			ok := m.RunUntil(func() bool {
				a, _ := m.Bus.Load(flagBase, 8)
				b, _ := m.Bus.Load(flagBase+8, 8)
				return a == 1 && b == 1
			}, 1_000_000)
			if !ok {
				t.Fatalf("harts never woke: mtime=%d (all-WFI must still advance time)",
					m.Clint.Time())
			}
			if m.Clint.Time() < 5 {
				t.Errorf("mtime = %d after both timers fired, want >= 5", m.Clint.Time())
			}
		})
	}
}

// lrscProg: a full handshake proving the cross-hart store lands between
// the LR and the SC. Hart 0 takes an LR reservation on a shared
// doubleword and raises reserved; hart 1 waits for reserved, stores to the
// reserved doubleword, and raises stored; hart 0 waits for stored, then
// attempts the SC and records its result.
func lrscProg(shared, reserved, stored, result uint64) []byte {
	a := asm.New(DramBase)
	a.BnezFar(asm.A0, "hart1")
	a.Li(asm.S0, shared)
	a.LrD(asm.T0, asm.S0)
	a.Li(asm.S1, reserved)
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.S1, 0)
	a.Li(asm.S1, stored)
	a.Label("wait0")
	a.Ld(asm.T1, asm.S1, 0)
	a.Beqz(asm.T1, "wait0")
	a.ScD(asm.T2, asm.S0, asm.T0)
	a.Li(asm.S1, result)
	a.Sd(asm.T2, asm.S1, 0)
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	a.Label("hart1")
	a.Li(asm.S1, reserved)
	a.Label("wait1")
	a.Ld(asm.T1, asm.S1, 0)
	a.Beqz(asm.T1, "wait1")
	a.Li(asm.S0, shared)
	a.Li(asm.T0, 99)
	a.Sd(asm.T0, asm.S0, 0)
	a.Li(asm.S1, stored)
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.S1, 0)
	a.Label("hang")
	a.J("hang")
	return a.MustAssemble()
}

// TestCrossHartStoreKillsReservation is the regression for the cross-hart
// LR/SC bugfix: another hart's store to the reserved doubleword must
// invalidate the reservation, so the SC fails, under both schedulers. (In
// parallel mode hart 1's store and flag commit at the same barrier, so a
// visible flag implies the reservation kill already happened.)
func TestCrossHartStoreKillsReservation(t *testing.T) {
	const (
		shared   = DramBase + 0x4000
		reserved = DramBase + 0x4008
		stored   = DramBase + 0x4010
		result   = DramBase + 0x4018
	)
	for _, s := range schedNames {
		t.Run(s.name, func(t *testing.T) {
			m := newTestMachine(t, 2)
			m.Sched = s.kind
			m.Quantum = 64
			_ = m.LoadImage(DramBase, lrscProg(shared, reserved, stored, result))
			m.Reset(DramBase)
			m.Run(100_000)
			if ok, reason := m.Halted(); !ok || !strings.Contains(reason, "pass") {
				t.Fatalf("halted=%v reason=%q", ok, reason)
			}
			sc, _ := m.Bus.Load(result, 8)
			if sc == 0 {
				t.Error("SC succeeded despite a cross-hart store to the reserved doubleword")
			}
			v, _ := m.Bus.Load(shared, 8)
			if v != 99 {
				t.Errorf("shared doubleword = %d, want hart 1's store (99) to survive", v)
			}
		})
	}
}

// computeProg is a never-halting per-hart compute loop in disjoint memory
// windows: each hart hashes a counter and stores into its own window.
func computeProg() []byte {
	a := asm.New(DramBase)
	a.Li(asm.S0, DramBase+0x10000)
	a.Slli(asm.T0, asm.A0, 12)
	a.Add(asm.S0, asm.S0, asm.T0)
	a.Li(asm.T1, 0)
	a.Li(asm.T2, 7)
	a.Label("loop")
	a.Addi(asm.T1, asm.T1, 1)
	a.Mul(asm.T3, asm.T1, asm.T2)
	a.Xor(asm.T4, asm.T4, asm.T3)
	a.Sd(asm.T4, asm.S0, 0)
	a.Sd(asm.T1, asm.S0, 8)
	a.J("loop")
	return a.MustAssemble()
}

// hartEndState captures the architecturally visible per-hart end state a
// scheduler check compares.
type hartEndState struct {
	pc, cycles, instret uint64
	regs                [32]uint64
	mem0, mem1          uint64
}

func captureEndState(m *Machine) []hartEndState {
	out := make([]hartEndState, len(m.Harts))
	for i, h := range m.Harts {
		out[i] = hartEndState{pc: h.PC, cycles: h.Cycles, instret: h.Instret, regs: h.Regs}
		base := uint64(DramBase+0x10000) + uint64(i)<<12
		out[i].mem0, _ = m.Bus.Load(base, 8)
		out[i].mem1, _ = m.Bus.Load(base+8, 8)
	}
	return out
}

// TestParBudgetMatchesSeq is the in-tree slice of the fuzzdiff equivalence
// gate: on a closed compute workload, RunParBudget(k) must land every hart
// on exactly the state k sequential machine steps produce, for any quantum,
// and twice in a row (run-to-run determinism).
func TestParBudgetMatchesSeq(t *testing.T) {
	const k = 2000
	prog := computeProg()

	ref := newTestMachine(t, 4)
	_ = ref.LoadImage(DramBase, prog)
	ref.Reset(DramBase)
	ref.Run(k)
	want := captureEndState(ref)

	for _, q := range []uint64{1, 7, 64, 1024} {
		for rep := 0; rep < 2; rep++ {
			m := newTestMachine(t, 4)
			m.Sched = SchedPar
			m.Quantum = q
			_ = m.LoadImage(DramBase, prog)
			m.Reset(DramBase)
			m.RunParBudget(k)
			got := captureEndState(m)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("quantum=%d rep=%d hart%d diverged from seq:\n got %+v\nwant %+v",
						q, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParRunSmoke checks that the ordinary Run entry point works under the
// parallel scheduler end to end: a multi-hart program that halts through
// the exit device reaches the same verdict as under seq.
func TestParRunSmoke(t *testing.T) {
	a := asm.New(DramBase)
	a.BnezFar(asm.A0, "hang")
	for i := 0; i < 40; i++ {
		a.Nop()
	}
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	a.Label("hang")
	a.J("hang")
	prog := a.MustAssemble()

	for _, s := range schedNames {
		t.Run(s.name, func(t *testing.T) {
			m := newTestMachine(t, 4)
			m.Sched = s.kind
			_ = m.LoadImage(DramBase, prog)
			m.Reset(DramBase)
			m.Run(100_000)
			if ok, reason := m.Halted(); !ok || !strings.Contains(reason, "pass") {
				t.Errorf("halted=%v reason=%q", ok, reason)
			}
		})
	}
}
