package main

import (
	"math/rand"

	"govfm/internal/asm"
	"govfm/internal/bench"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/rv"
)

// defaultSeed is the seed whose workloads reproduce the sizes quoted in
// README.md exactly and whose simulated counts are pinned in pins.go.
const defaultSeed = 1

// seedRand returns the generator for a workload's inputs. The default
// seed yields the unperturbed sizes; other seeds perturb parameters by a
// fraction of a percent, so host throughput stays comparable across seeds.
func seedRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// scaled shrinks a loop count for self-tests, never below 1.
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// trapStormKernel makes 250 000 SBI calls (at the default seed) to an
// extension the firmware does not implement, checks that every reply is
// SBI_ERR_NOT_SUPPORTED, and shuts down. Each call is Table 4's full
// OS→monitor→firmware→monitor→OS round trip, which offload cannot absorb.
func trapStormKernel(seed int64, scale float64) []byte {
	r := seedRand(seed)
	calls := 250_000
	eid := uint64(0x0BADBEEF)
	if seed != defaultSeed {
		calls += r.Intn(2001) - 1000
		eid = 0x0BAD0000 | uint64(r.Intn(1<<16))
	}
	calls = scaled(calls, scale)
	a := asm.New(core.OSBase)
	a.Li(asm.S0, uint64(calls))
	a.Li(asm.S1, ^uint64(-rv.SBIErrNotSupported-1)) // SBI_ERR_NOT_SUPPORTED
	a.Label("loop")
	a.Li(asm.A7, eid)
	a.Li(asm.A6, uint64(r.Intn(8)))
	a.Li(asm.A0, r.Uint64())
	a.Ecall()
	a.BneFar(asm.A0, asm.S1, "fail")
	a.Addi(asm.S0, asm.S0, -1)
	a.Bnez(asm.S0, "loop")
	emitShutdown(a)
	return a.MustAssemble()
}

// computeSpec is the CoreMark-Pro-style core kernel: a dependent
// arithmetic chain with a small strided memory loop, a time read every 9
// iterations and an SBI set_timer every 97.
func computeSpec(seed int64, scale float64) *bench.WorkloadSpec {
	r := seedRand(seed)
	w := &bench.WorkloadSpec{
		Name: "cmp-core", Iterations: 15_000, ComputeN: 1800, MemN: 10,
		WorkingSet: 4 << 10, TimeReadEvery: 9, TimerSetEvery: 97,
	}
	if seed != defaultSeed {
		w.ComputeN += r.Intn(9) - 4
		w.MemN += r.Intn(5) - 2
		w.TimerSetEvery += r.Intn(7) - 3
	}
	w.Iterations = scaled(w.Iterations, scale)
	return w
}

// smpParams sizes the multi-hart kernel.
type smpParams struct {
	harts      int
	iterations int
	computeN   int
	timeEvery  int // csrr time every N iterations
	timerEvery int // SBI set_timer every N iterations
	ipiEvery   int // IPI to the next hart every N iterations
	timerDelta int // ticks until the armed timer fires
}

func smpSpec(seed int64, scale float64) smpParams {
	r := seedRand(seed)
	p := smpParams{harts: 4, iterations: 12_000, computeN: 200,
		timeEvery: 7, timerEvery: 41, ipiEvery: 53, timerDelta: 5}
	if seed != defaultSeed {
		p.computeN += r.Intn(9) - 4
		p.timeEvery += r.Intn(3) - 1
		p.timerEvery += r.Intn(7) - 3
		p.ipiEvery += r.Intn(7) - 3
		p.timerDelta += r.Intn(5)
	}
	p.iterations = scaled(p.iterations, scale)
	return p
}

// Per-hart save area of the SMP kernel's trap handler: t0-t2, a0, a1, a6,
// a7, then the timer and IPI counters the handler increments.
const (
	smpSaveStride = 128
	smpTicksOff   = 64
	smpIPIsOff    = 72
	smpCookie     = 0x5EED
)

// smpKernel builds the 4-hart kernel. Hart 0 starts the others through
// SBI HSM; every hart then runs the same compute loop with periodic time
// reads, set_timer calls and IPIs to the next hart. The handler saves what
// it touches, so interrupts may land on any instruction. Each hart counts
// itself done with an AMO; hart 0 waits for all and shuts down through
// SBI SRST (guest-exit-pass), the others idle in WFI still taking IPIs.
func smpKernel(p smpParams) []byte {
	a := asm.New(core.OSBase)
	a.BnezFar(asm.A0, "secondary")
	for h := 1; h < p.harts; h++ {
		a.Li(asm.A0, uint64(h))
		a.La(asm.A1, "secondary")
		a.Li(asm.A2, smpCookie)
		emitSBI(a, rv.SBIExtHSM, rv.SBIHSMHartStart)
		a.BnezFar(asm.A0, "fail")
	}
	a.Li(asm.S11, 0)
	a.J("worker")

	a.Label("secondary") // a0 = hartid, a1 = opaque
	a.Li(asm.T0, smpCookie)
	a.BneFar(asm.A1, asm.T0, "fail")
	a.Mv(asm.S11, asm.A0)

	a.Label("worker")
	a.La(asm.T0, "strap")
	a.Csrw(rv.CSRStvec, asm.T0)
	a.La(asm.T0, "save")
	a.Slli(asm.T1, asm.S11, 7) // × smpSaveStride
	a.Add(asm.T0, asm.T0, asm.T1)
	a.Csrw(rv.CSRSscratch, asm.T0)
	a.Li(asm.T0, 1<<rv.IntSTimer|1<<rv.IntSSoft)
	a.Csrrs(asm.X0, rv.CSRSie, asm.T0)
	a.Csrrsi(asm.X0, rv.CSRSstatus, 1<<rv.MstatusSIE)
	// s4 = IPI mask of the next hart.
	a.Addi(asm.T0, asm.S11, 1)
	a.Li(asm.T1, uint64(p.harts))
	a.Remu(asm.T0, asm.T0, asm.T1)
	a.Li(asm.S4, 1)
	a.Sll(asm.S4, asm.S4, asm.T0)
	a.Li(asm.S0, uint64(p.iterations))
	a.Li(asm.S1, 0)

	a.Label("outer")
	a.Li(asm.S2, uint64(p.computeN))
	a.Li(asm.S3, 0x9E3779B9)
	a.Add(asm.S3, asm.S3, asm.S11)
	a.Label("comp")
	a.Add(asm.S5, asm.S5, asm.S3)
	a.Xor(asm.S3, asm.S3, asm.S5)
	a.Slli(asm.S6, asm.S5, 1)
	a.Add(asm.S5, asm.S5, asm.S6)
	a.Addi(asm.S2, asm.S2, -1)
	a.Bnez(asm.S2, "comp")

	every := func(n int, label string, body func()) {
		a.Li(asm.S7, uint64(n))
		a.Remu(asm.S7, asm.S1, asm.S7)
		a.BnezFar(asm.S7, label)
		body()
		a.Label(label)
	}
	every(p.timeEvery, "tr_skip", func() { a.Csrr(asm.S8, rv.CSRTime) })
	every(p.timerEvery, "tmr_skip", func() {
		a.Csrr(asm.A0, rv.CSRTime)
		a.Addi(asm.A0, asm.A0, int64(p.timerDelta))
		emitSBI(a, rv.SBIExtTimer, rv.SBITimerSetTimer)
		a.BnezFar(asm.A0, "fail")
	})
	every(p.ipiEvery, "ipi_skip", func() {
		a.Mv(asm.A0, asm.S4)
		a.Li(asm.A1, 0)
		emitSBI(a, rv.SBIExtIPI, rv.SBIIPISendIPI)
		a.BnezFar(asm.A0, "fail")
	})
	a.Addi(asm.S1, asm.S1, 1)
	a.Addi(asm.S0, asm.S0, -1)
	a.BnezFar(asm.S0, "outer")

	a.La(asm.T0, "done")
	a.Li(asm.T1, 1)
	a.AmoaddD(asm.X0, asm.T0, asm.T1)
	a.BnezFar(asm.S11, "idle")
	a.Li(asm.T2, uint64(p.harts))
	a.Label("wait_all")
	a.Ld(asm.T1, asm.T0, 0)
	a.Bne(asm.T1, asm.T2, "wait_all")
	emitShutdown(a)
	a.Label("idle")
	a.Wfi()
	a.J("idle")

	// Supervisor trap handler: timer → quiesce, soft → clear SSIP.
	a.Label("strap")
	a.Csrrw(asm.T6, rv.CSRSscratch, asm.T6)
	for i, reg := range []int{asm.T0, asm.T1, asm.T2, asm.A0, asm.A1, asm.A6, asm.A7} {
		a.Sd(reg, asm.T6, int64(8*i))
	}
	a.Csrr(asm.T0, rv.CSRScause)
	a.Bge(asm.T0, asm.X0, "fail") // synchronous traps are bugs
	a.Slli(asm.T0, asm.T0, 1)
	a.Srli(asm.T0, asm.T0, 1)
	a.Li(asm.T1, rv.IntSTimer)
	a.Beq(asm.T0, asm.T1, "strap_tmr")
	a.Li(asm.T1, rv.IntSSoft)
	a.BneFar(asm.T0, asm.T1, "fail")
	a.Li(asm.T0, 1<<rv.IntSSoft)
	a.Csrrc(asm.X0, rv.CSRSip, asm.T0)
	a.Li(asm.T2, smpIPIsOff)
	a.J("strap_count")
	a.Label("strap_tmr")
	a.Li(asm.A0, ^uint64(0))
	emitSBI(a, rv.SBIExtTimer, rv.SBITimerSetTimer)
	a.Li(asm.T2, smpTicksOff)
	a.Label("strap_count")
	a.Add(asm.T2, asm.T2, asm.T6)
	a.Ld(asm.T1, asm.T2, 0)
	a.Addi(asm.T1, asm.T1, 1)
	a.Sd(asm.T1, asm.T2, 0)
	for i, reg := range []int{asm.T0, asm.T1, asm.T2, asm.A0, asm.A1, asm.A6, asm.A7} {
		a.Ld(reg, asm.T6, int64(8*i))
	}
	a.Csrrw(asm.T6, rv.CSRSscratch, asm.T6)
	a.Sret()

	a.Align(8)
	a.Label("done")
	a.Space(8)
	a.Align(smpSaveStride)
	a.Label("save")
	a.Space(uint64(smpSaveStride * p.harts))
	return a.MustAssemble()
}

// emitSBI emits an SBI call with the extension and function in a7/a6.
func emitSBI(a *asm.Asm, ext, fn uint64) {
	a.Li(asm.A7, ext)
	a.Li(asm.A6, fn)
	a.Ecall()
}

// emitShutdown emits a clean SBI SRST shutdown (guest-exit-pass), then
// the "fail" label that stops the machine with guest-exit-fail, then the
// "hang" loop both end in.
func emitShutdown(a *asm.Asm) {
	a.Li(asm.A0, 0)
	a.Li(asm.A1, 0)
	emitSBI(a, rv.SBIExtReset, 0)
	a.J("hang")
	a.Label("fail")
	a.Li(asm.T6, hart.ExitBase)
	a.Li(asm.T5, hart.ExitFail)
	a.Sd(asm.T5, asm.T6, 0)
	a.Label("hang")
	a.J("hang")
}
