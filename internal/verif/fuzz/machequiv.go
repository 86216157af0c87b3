package fuzz

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/dev/plic"
	"govfm/internal/hart"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// This file implements the machine sweep of the equivalence gate, the one
// gate for every host-side mechanism that must not change a machine's end
// state: the host caches, the superblock tier, the quantum-parallel
// scheduler and the copy-on-write fork. One generator draws a closed
// N-hart case; one runner executes it across
//
//	{interp, caches, superblocks} × {seq, par(q)} × {cold, fork@k}
//
// and compares every end state with hart.DiffImages against the
// interpreter's cold run under the same scheduler; a fork's child and its
// post-fork parent must each equal that cold run. Locked PMP entries
// confine each hart to its own program and scratch windows (they bind M
// too, and only a full reset clears them), so wild accesses trap
// deterministically instead of reaching devices or a peer's memory.
//
// Half the cases freeze the wall clock (CyclesPerTick = 0), and only
// those are also compared across schedulers: the parallel scheduler
// latches mtime and the interrupt lines once per round, so under a
// running clock a timer crossing lands on a quantum boundary (DESIGN.md,
// "Machine equivalence: one gate, one diff"). Live-clock cases carry the
// mtimecmp crossings the superblock headroom must respect and the cycle
// remainder a fork must carry.

// Execution tiers, in sweep order. tierInterp is the oracle.
const (
	tierInterp = iota
	tierCaches
	tierSB
	numTiers
)

var tierNames = [numTiers]string{"interp", "caches", "superblocks"}

// equivQuanta are the parallel slice lengths cases cycle through: 1
// maximizes barrier crossings, 1024 is the production default.
var equivQuanta = []uint64{1, 7, 64, 1024}

// equivHartCounts are the machine sizes cases cycle through.
var equivHartCounts = []int{1, 2, 4}

// equivSteps is the per-case step budget, split at the fork point. It is
// larger than the lockstep StepBudget so generated loops cross the
// translation heat threshold and run inside superblocks.
const equivSteps = 1024

// equivGenCSRs is the CSR surface generated programs touch: hart-local
// plumbing plus the PMP configuration CSRs. Entries 0..2 are locked by
// install and together match every address, so writes to the unlocked
// entries are architecturally inert — but they change the PMP file's
// content id, forcing superblock guard misses mid-program.
var equivGenCSRs = []asm.GenCSR{
	{CSR: rv.CSRMscratch, Forms: asm.FormsAll},
	{CSR: rv.CSRSscratch, Forms: asm.FormsAll},
	{CSR: rv.CSRMtvec, Forms: asm.FormsAll},
	{CSR: rv.CSRStvec, Forms: asm.FormsAll},
	{CSR: rv.CSRMepc, Forms: asm.FormsAll},
	{CSR: rv.CSRSepc, Forms: asm.FormsAll},
	{CSR: rv.CSRMcause, Forms: asm.FormsAll},
	{CSR: rv.CSRScause, Forms: asm.FormsAll},
	{CSR: rv.CSRMtval, Forms: asm.FormsAll},
	{CSR: rv.CSRStval, Forms: asm.FormsAll},
	{CSR: rv.CSRMie, Forms: asm.FormsAll},
	{CSR: rv.CSRMedeleg, Forms: asm.FormsAll},
	{CSR: rv.CSRMstatus, Forms: asm.FormsImm},
	{CSR: rv.CSRMhartid, Forms: asm.FormsRead},
	{CSR: rv.CSRPmpcfg0, Forms: asm.FormsAll},
	{CSR: rv.CSRPmpaddr0 + 5, Forms: asm.FormsAll},
}

// csrInit is one CSR write install performs through the hart's WARL path.
type csrInit struct {
	CSR uint16
	Val uint64
}

// machineHart is one hart's generated starting state.
type machineHart struct {
	Regs     [32]uint64
	CSRs     []csrInit
	Res      uint64 // live LR reservation address at start, 0 for none
	Mtimecmp uint64 // programmed when the case's Timer is set
}

// MachineCase is one machine-equivalence input.
type MachineCase struct {
	Profile string
	Harts   int
	Frozen  bool   // wall clock frozen: the schedulers are compared too
	Quantum uint64 // the parallel scheduler's slice length
	K1, K2  uint64 // steps before the fork point / after it
	Fork    int    // the tier whose run is forked at K1
	Loop    bool   // every program starts with a hot counted loop
	Timer   bool   // mtimecmp programmed to cross mid-run
	Sstc    bool   // menvcfg.STCE set, stimecmp near the current time
	SMC     bool   // a base register points into the hart's own program
	Progs   [][]uint32
	Init    []machineHart
	Plic    [][2]uint64 // PLIC register writes (offset, value) at install
}

func (tc *MachineCase) String() string {
	return fmt.Sprintf("machinecase{%s, harts=%d, frozen=%v, q=%d, k=%d+%d, fork=%s, loop=%v, timer=%v, sstc=%v, smc=%v}",
		tc.Profile, tc.Harts, tc.Frozen, tc.Quantum, tc.K1, tc.K2, tierNames[tc.Fork], tc.Loop, tc.Timer, tc.Sstc, tc.SMC)
}

// machineRig is one (profile, hart count, clock) configuration's pair of
// machines, reused across cases through full resets: run executes every
// cold run and every fork parent, child is the long-lived machine each
// fork image is loaded into (the fleet's worker-reuse path). The
// configuration is read back from run.Cfg.
type machineRig struct {
	run, child *hart.Machine
	genCfg     asm.GenCfg
}

func newMachineRig(profile string, harts int, frozen bool) (*machineRig, error) {
	mk, ok := hart.Profiles()[profile]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	r := &machineRig{}
	for _, dst := range []**hart.Machine{&r.run, &r.child} {
		cfg := mk()
		cfg.Harts = harts
		if frozen {
			cfg.CyclesPerTick = 0
		}
		m, err := hart.NewMachine(cfg, core.DramSize)
		if err != nil {
			return nil, err
		}
		*dst = m
	}
	csrs := equivGenCSRs
	if r.run.Cfg.HasSstc {
		// Programs reprogram the S-level comparator mid-run, moving the
		// superblock headroom's Sstc term.
		csrs = append(csrs[:len(csrs):len(csrs)], asm.GenCSR{CSR: rv.CSRStimecmp, Forms: asm.FormsAll})
	}
	r.genCfg = asm.GenCfg{
		Slots:      Slots,
		DataRegs:   []int{10, 11, 12, 13, 14, 15},
		BaseRegs:   []int{16, 17, 18},
		BaseWindow: 2048,
		CSRs:       csrs,
		HFence:     r.run.Cfg.HasH,
	}
	return r, nil
}

// Per-hart windows. Program windows tile the firmware region, scratch
// windows the OS region; both strides keep NAPOT alignment.
func progBaseOf(i int) uint64    { return ProgBase + uint64(i)*ProgCap }
func scratchBaseOf(i int) uint64 { return ScratchBase + uint64(i)*ScratchSize }

// napotAddr encodes a pmpaddr NAPOT match over [base, base+size) — size a
// power of two ≥ 8, base size-aligned.
func napotAddr(base, size uint64) uint64 { return (base >> 2) | (size>>3 - 1) }

// loopReg counts a hot loop's iterations. Generated code reads and writes
// only the data and base registers, so nothing else touches it.
const loopReg = 19

// hotLoop rewrites the head of prog into a counted loop of eight
// generated straight-line instructions (ALU, load, store), so the hart
// spends the run inside translated blocks: the superblock tier's timer
// headroom and quantum bounds only matter when a crossing lands inside
// one. Stores may still hit the loop itself in self-modifying cases, and
// traps may still leave it.
func (r *machineRig) hotLoop(rng *rand.Rand, prog []uint32) {
	a := asm.New(0)
	a.Label("top")
	for k := 0; k < 8; k++ {
		w := asm.GenOne(rng, &r.genCfg, k)
		for !straightLine(w) {
			w = asm.GenOne(rng, &r.genCfg, k)
		}
		a.Word(w)
	}
	a.Addi(loopReg, loopReg, -1)
	a.Bnez(loopReg, "top")
	code := a.MustAssemble()
	for k := range prog[:len(code)/4] {
		prog[k] = binary.LittleEndian.Uint32(code[4*k:])
	}
}

// straightLine reports whether w is an ALU, load or store instruction.
func straightLine(w uint32) bool {
	switch w & 0x7F {
	case rv.OpImm, rv.OpReg, rv.OpImm32, rv.OpReg32, rv.OpLoad, rv.OpStore, rv.OpLui, rv.OpAuipc:
		return true
	}
	return false
}

// genCase draws one case for this rig's configuration.
func (r *machineRig) genCase(rng *rand.Rand, quantum uint64, fork int) *MachineCase {
	cfg, harts := r.run.Cfg, len(r.run.Harts)
	k1 := uint64(16 + rng.Intn(equivSteps/2))
	tc := &MachineCase{
		Profile: cfg.Name,
		Harts:   harts,
		Frozen:  cfg.CyclesPerTick == 0,
		Quantum: quantum,
		K1:      k1,
		K2:      equivSteps - k1,
		Fork:    fork,
		Loop:    rng.Intn(2) == 0,
		Timer:   rng.Intn(2) == 0,
		Sstc:    cfg.HasSstc && rng.Intn(4) != 0,
		SMC:     rng.Intn(3) == 0,
		Progs:   make([][]uint32, harts),
		Init:    make([]machineHart, harts),
	}
	for i := 0; i < harts; i++ {
		tc.Progs[i] = asm.Generate(rng, &r.genCfg)
		if tc.Loop {
			r.hotLoop(rng, tc.Progs[i])
		}
		in := &tc.Init[i]
		for x := 1; x < 32; x++ {
			in.Regs[x] = randValue(rng)
		}
		for _, x := range r.genCfg.BaseRegs {
			base := scratchBaseOf(i) + uint64(rng.Intn(ScratchSize-4096))&^7
			if rng.Intn(6) == 0 {
				base |= uint64(rng.Intn(8))
			}
			in.Regs[x] = base
		}
		if tc.SMC {
			// Generated stores through the last base register overwrite
			// live code that may already sit inside a translated block.
			last := r.genCfg.BaseRegs[len(r.genCfg.BaseRegs)-1]
			in.Regs[last] = progBaseOf(i) + uint64(rng.Intn(ProgCap-2048))&^7
		}
		in.Regs[loopReg] = 1 << 20
		slot := func() uint64 { return progBaseOf(i) + uint64(4*rng.Intn(Slots)) }
		// MIE/SIE/MPIE/SPIE/SPP and MPP; MPV stays 0, so the hart starts
		// in M and enters a guest only through an sret with hstatus.SPV
		// set. A timer case enables the timer interrupt, so a crossing
		// preempts.
		mstatus := rng.Uint64()&(1<<1|1<<3|1<<5|1<<7|1<<8) | []uint64{0, 1, 3}[rng.Intn(3)]<<11
		mie := rng.Uint64() & 0xAAA
		if tc.Timer {
			mstatus |= 1 << rv.MstatusMIE
			mie |= 1 << rv.IntMTimer
		}
		in.CSRs = []csrInit{{rv.CSRMstatus, mstatus}, {rv.CSRMie, mie},
			{rv.CSRMtvec, slot() | uint64(rng.Intn(2))}, {rv.CSRStvec, slot() | uint64(rng.Intn(2))},
			{rv.CSRMepc, slot()}, {rv.CSRSepc, slot()}}
		anyValue := []uint16{rv.CSRMedeleg, rv.CSRMscratch, rv.CSRSscratch,
			rv.CSRMcause, rv.CSRScause, rv.CSRMtval, rv.CSRStval}
		if cfg.HasH {
			// The H and VS CSRs. Fork and restore must carry them whether
			// or not a guest ever runs.
			in.CSRs = append(in.CSRs,
				csrInit{rv.CSRHgatp, rv.HgatpModeSv39x4<<60 | rng.Uint64()&rv.Mask(58)},
				csrInit{rv.CSRVsatp, rv.SatpModeSv39<<60 | rng.Uint64()&rv.Mask(60)},
				csrInit{rv.CSRVstvec, slot()}, csrInit{rv.CSRVsepc, slot()})
			anyValue = append(anyValue, rv.CSRHstatus, rv.CSRHedeleg, rv.CSRHcounteren,
				rv.CSRHtval, rv.CSRHtinst, rv.CSRVsstatus, rv.CSRVsscratch, rv.CSRVscause, rv.CSRVstval)
		}
		for _, n := range anyValue { // WARL-legalized by the write path
			in.CSRs = append(in.CSRs, csrInit{n, rng.Uint64()})
		}
		if rng.Intn(4) == 0 {
			in.Res = scratchBaseOf(i) + uint64(rng.Intn(ScratchSize))&^7
		}
		// A hot loop retires about one instruction per cycle, so its
		// comparator is drawn from the first few ticks.
		in.Mtimecmp = uint64(rng.Intn(48))
		if tc.Loop {
			in.Mtimecmp = 1 + uint64(rng.Intn(3))
		}
		if tc.Sstc {
			// The Sstc comparator drives STIP from the clock directly: the
			// pending check reads mtime only while STCE is set, and the
			// superblock headroom and WFI batching bound blocks by it.
			stimecmp := uint64(rng.Intn(48))
			if tc.Loop {
				stimecmp = 1 + uint64(rng.Intn(3))
			}
			in.CSRs = append(in.CSRs, csrInit{rv.CSRMenvcfg, 1 << 63}, csrInit{rv.CSRStimecmp, stimecmp})
		}
	}
	// PLIC priorities, per-context enables and thresholds. No source is
	// ever raised, so no external interrupt becomes pending; the state
	// only has to survive forks and restores.
	for src := 1; src < 8; src++ {
		tc.Plic = append(tc.Plic, [2]uint64{plic.PriorityOff + 4*uint64(src), uint64(rng.Intn(8))})
	}
	for ctx := 0; ctx < 2*harts; ctx++ {
		tc.Plic = append(tc.Plic,
			[2]uint64{plic.EnableOff + 0x80*uint64(ctx), uint64(rng.Uint32())},
			[2]uint64{plic.ContextOff + plic.ContextSize*uint64(ctx), uint64(rng.Intn(8))})
	}
	return tc
}

// install writes the case onto a machine for one run: full reset, tier
// and scheduler, per-hart program and scratch images, starting state, the
// locked-PMP confinement and the device state. Entry 0 grants the hart its
// own program window, entry 1 its own scratch window, and locked entry 2
// blankets the rest of the address space with no permissions.
func install(m *hart.Machine, tc *MachineCase, tier int, sched hart.SchedKind) {
	m.Reset(ProgBase)
	m.Sched, m.Quantum = sched, tc.Quantum
	m.SetFastPath(tier != tierInterp)
	m.SetSuperblock(tier == tierSB)
	for i, h := range m.Harts {
		prog := make([]byte, 4*len(tc.Progs[i]))
		for j, w := range tc.Progs[i] {
			binary.LittleEndian.PutUint32(prog[4*j:], w)
		}
		m.LoadImage(progBaseOf(i), zeroWindow[:ProgCap])
		m.LoadImage(scratchBaseOf(i), zeroWindow)
		m.LoadImage(progBaseOf(i), prog)

		in := &tc.Init[i]
		h.Regs = in.Regs
		h.Regs[0] = 0
		h.PC = progBaseOf(i)
		h.Mode = rv.ModeM
		for _, w := range in.CSRs {
			if !h.CSRWrite(w.CSR, w.Val) {
				panic(fmt.Sprintf("fuzz: install: CSR %#x not writable on %s", w.CSR, m.Cfg.Name))
			}
		}
		f := h.CSR.PMP
		rwxNapot := uint8(pmp.CfgL | pmp.CfgR | pmp.CfgW | pmp.CfgX | pmp.ANapot<<3)
		f.ForceAddr(0, napotAddr(progBaseOf(i), ProgCap))
		f.ForceCfg(0, rwxNapot)
		f.ForceAddr(1, napotAddr(scratchBaseOf(i), ScratchSize))
		f.ForceCfg(1, rwxNapot)
		f.ForceAddr(2, rv.Mask(54))
		f.ForceCfg(2, pmp.CfgL|pmp.ANapot<<3)
		if in.Res != 0 {
			h.SetReservation(in.Res)
		}
		if tc.Timer {
			m.Clint.SetMtimecmp(i, in.Mtimecmp)
		}
	}
	for _, w := range tc.Plic {
		m.Plic.Store(w[0], 4, w[1])
	}
}

// advance runs k steps under m's scheduler and returns the steps taken.
// The sequential scheduler stops when the machine halts; the parallel
// side is given exactly the sequential oracle's step counts, so both
// execute the same number of step calls per hart (RunParBudget).
func advance(m *hart.Machine, k uint64) uint64 {
	if m.Sched == hart.SchedPar {
		m.RunParBudget(k)
		return k
	}
	n, _ := m.Run(k)
	return n
}

func snapshot(m *hart.Machine) *hart.Image {
	img, err := m.Snapshot()
	if err != nil {
		// Every run ends between rounds with the store buffers committed.
		panic(err)
	}
	return img
}

// runCase executes one case across the whole sweep and records the
// outcome in st.
func (r *machineRig) runCase(tc *MachineCase, st *EquivStats) {
	scheds := []struct {
		kind  hart.SchedKind
		label string
	}{
		{hart.SchedSeq, "seq"},
		{hart.SchedPar, fmt.Sprintf("par(q=%d)", tc.Quantum)},
	}
	// check diffs a run's end state against its oracle; label names the
	// cell, e.g. "superblocks/par(q=7)/fork:child".
	check := func(label string, oracle, got *hart.Image) {
		st.Runs++
		if d := hart.DiffImages(oracle, got); d != "" {
			st.Mismatches = append(st.Mismatches, &EquivMismatch{Case: tc, Desc: label + ": " + d})
		}
	}
	// The sequential interpreter's step counts pin the trajectory every
	// other run replays (see advance).
	k1, k2 := tc.K1, tc.K2
	var oracles []*hart.Image
	for si, s := range scheds {
		cell := func(tier int, mode string) string {
			return tierNames[tier] + "/" + s.label + "/" + mode
		}
		var oracle *hart.Image
		for tier := 0; tier < numTiers; tier++ {
			install(r.run, tc, tier, s.kind)
			a := advance(r.run, k1)
			b := advance(r.run, k2)
			if si == 0 && tier == tierInterp {
				k1, k2 = a, b
				st.Steps += int(a + b)
			}
			img := snapshot(r.run)
			st.Cells[cell(tier, "cold")]++
			if tier == tierInterp {
				oracle = img
				continue
			}
			check(cell(tier, "cold"), oracle, img)
		}
		oracles = append(oracles, oracle)

		// Fork the case's fork tier at k1; child and parent both finish.
		install(r.run, tc, tc.Fork, s.kind)
		advance(r.run, k1)
		img := snapshot(r.run)
		st.ForkPages += img.Mem.Pages()
		restore(r.child, img)
		advance(r.child, k2)
		advance(r.run, k2)
		st.Cells[cell(tc.Fork, "fork")]++
		check(cell(tc.Fork, "fork")+":child", oracle, snapshot(r.child))
		check(cell(tc.Fork, "fork")+":parent", oracle, snapshot(r.run))
	}
	if tc.Frozen {
		check("interp/"+scheds[1].label+"-vs-seq/cold", oracles[0], oracles[1])
	}
}

// RunMachineEquivalence sweeps `cases` machine-equivalence cases per
// profile across hart counts, clocks, quanta and fork tiers. Every case
// runs every tier cold and one tier forked, under both schedulers, and
// compares each end state with the interpreter's cold run under the same
// scheduler; frozen-clock cases also compare the two schedulers.
func RunMachineEquivalence(profiles []string, seed int64, cases int) (*EquivStats, error) {
	var rigs []*machineRig
	for _, prof := range profiles {
		for _, n := range equivHartCounts {
			for _, frozen := range []bool{true, false} {
				r, err := newMachineRig(prof, n, frozen)
				if err != nil {
					return nil, err
				}
				rigs = append(rigs, r)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	st := &EquivStats{Cells: map[string]int{}}
	for c := 0; c < cases*len(profiles); c++ {
		// Rigs rotate fastest. Each rig steps through all twelve quantum ×
		// fork-tier pairs in twelve rounds (4 and 3 are coprime), and
		// neighbouring rigs start at different pairs, so short sweeps
		// still spread across them.
		j, round := c%len(rigs), c/len(rigs)
		r := rigs[j]
		q := equivQuanta[(round+j)%len(equivQuanta)]
		tc := r.genCase(rng, q, (round+j)%numTiers)
		r.runCase(tc, st)
		st.Cases++
		if len(st.Mismatches) >= 10 {
			break
		}
	}
	// Perf counters survive Machine.Reset, so each machine's counter is
	// already its total across all cases.
	for _, r := range rigs {
		for _, m := range []*hart.Machine{r.run, r.child} {
			for _, h := range m.Harts {
				st.SBRetired += h.Perf.SBRetired
			}
		}
	}
	return st, nil
}
