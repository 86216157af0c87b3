package hart

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"govfm/internal/dev/clint"
	"govfm/internal/dev/iopmp"
	"govfm/internal/dev/plic"
	"govfm/internal/dev/uart"
	"govfm/internal/mem"
	"govfm/internal/obs"
	"govfm/internal/rv"
)

// Physical memory map of the simulated platforms (the usual RISC-V SoC
// layout both evaluation boards follow).
const (
	ExitBase  = 0x0010_0000 // test-finisher device (QEMU sifive_test style)
	ClintBase = 0x0200_0000
	PlicBase  = 0x0C00_0000
	UartBase  = 0x1000_0000
	DMABase   = 0x3000_0000 // DMA-capable device (sandbox policy target)
	IOPMPBase = 0x3100_0000 // IOPMP unit (when the platform has one)
	DramBase  = 0x8000_0000
)

// Exit-device command values.
const (
	ExitPass = 0x5555
	ExitFail = 0x3333
)

// exitDevice halts the machine when guest code stores a completion code,
// standing in for the SiFive test finisher used to end QEMU runs.
type exitDevice struct {
	m *Machine
}

func (d *exitDevice) Name() string { return "exit" }

func (d *exitDevice) Load(off uint64, size int) (uint64, bool) { return 0, true }

func (d *exitDevice) Store(off uint64, size int, v uint64) bool {
	switch uint32(v) & 0xFFFF {
	case ExitPass:
		d.m.halt("guest-exit-pass")
	case ExitFail:
		d.m.halt(fmt.Sprintf("guest-exit-fail(code=%d)", v>>16))
	default:
		d.m.halt(fmt.Sprintf("guest-exit(%#x)", v))
	}
	return true
}

// Machine is a full simulated platform: harts, DRAM, and devices, with a
// deterministic round-robin scheduler and a shared mtime derived from
// consumed cycles.
type Machine struct {
	Cfg   *Config
	Bus   *mem.Bus
	Harts []*Hart
	Clint *clint.Clint
	Plic  *plic.Plic
	Uart  *uart.Uart
	DMA   *DMAEngine
	IOPMP *iopmp.IOPMP // non-nil when Cfg.HasIOPMP

	DramSize uint64

	// Sched selects the execution engine: SchedSeq (default) is the
	// per-instruction round-robin; SchedPar runs each hart on its own
	// goroutine for Quantum simulated cycles between barriers (sched.go).
	Sched SchedKind
	// Quantum is the parallel slice length in simulated cycles
	// (0 = DefaultQuantum). Ignored under SchedSeq.
	Quantum uint64

	halted     bool
	haltReason string

	timeRemainder uint64

	// fast mirrors SetFastPath: on, the sequential scheduler latches the
	// interrupt lines from the event horizon ev; off, from the devices on
	// every step (the reference behaviour the equivalence gate compares
	// against).
	fast bool
	ev   lineCache

	// trace receives scheduler barrier instants (AttachObs).
	trace *obs.Tracer
	// par is the parallel scheduler's reusable round state.
	par parScratch
	// inRound is set for the duration of a parallel quantum round, during
	// which per-hart store buffers hold uncommitted state; Snapshot refuses
	// to run while it is set.
	inRound atomic.Bool
}

// NewMachine builds a platform from a profile with the given DRAM size.
func NewMachine(cfg *Config, dramSize uint64) (*Machine, error) {
	m := &Machine{
		Cfg:      cfg,
		Bus:      mem.NewBus(),
		Clint:    clint.New(cfg.Harts),
		Plic:     plic.New(cfg.Harts),
		Uart:     uart.New(),
		DramSize: dramSize,
		fast:     true,
	}
	m.DMA = NewDMAEngine(m.Bus)
	if err := m.Bus.AddRAM(DramBase, dramSize); err != nil {
		return nil, err
	}
	for _, d := range []struct {
		base, size uint64
		dev        mem.Device
	}{
		{ExitBase, 0x1000, &exitDevice{m}},
		{ClintBase, clint.Size, m.Clint},
		{PlicBase, plic.Size, m.Plic},
		{UartBase, uart.Size, m.Uart},
		{DMABase, DMARegionSize, m.DMA},
	} {
		if err := m.Bus.AddDevice(d.base, d.size, d.dev); err != nil {
			return nil, err
		}
	}
	if cfg.HasIOPMP {
		m.IOPMP = iopmp.New(8)
		if err := m.Bus.AddDevice(IOPMPBase, iopmp.Size, m.IOPMP); err != nil {
			return nil, err
		}
		m.DMA.Check = m.IOPMP.Check
	}
	for i := 0; i < cfg.Harts; i++ {
		h := New(i, cfg, m.Bus)
		h.TimeFn = m.Clint.Time
		m.Harts = append(m.Harts, h)
	}
	// Wire every hart to its peers so a store can kill their overlapping
	// LR/SC reservations, as cache coherence does on real hardware.
	if cfg.Harts > 1 {
		for _, h := range m.Harts {
			for _, p := range m.Harts {
				if p != h {
					h.peers = append(h.peers, p)
				}
			}
		}
	}
	return m, nil
}

func (m *Machine) halt(reason string) {
	m.halted = true
	m.haltReason = reason
}

// Halted reports whether the machine has stopped, and why.
func (m *Machine) Halted() (bool, string) { return m.halted, m.haltReason }

// SetFastPath toggles every host-side acceleration cache in the machine:
// the harts' predecode/TLB/flattened-PMP caches and page fetch verdicts,
// and the sequential scheduler's cached interrupt lines. Off reproduces
// the pre-acceleration simulator exactly; the architectural results are
// identical either way (enforced by the equivalence gate, fuzzdiff
// -equiv).
func (m *Machine) SetFastPath(on bool) {
	for _, h := range m.Harts {
		h.SetFastPath(on)
	}
	m.fast = on
	m.ev.horizon = 0
}

// SetSuperblock toggles the superblock binary-translation tier on every
// hart (superblock.go). Translations are host state only; toggling drops
// them all and changes no architectural state.
func (m *Machine) SetSuperblock(on bool) {
	for _, h := range m.Harts {
		h.SetSuperblock(on)
	}
}

// SuperblockEnabled reports whether the superblock tier is on (hart 0
// stands for the machine; the setter applies uniformly).
func (m *Machine) SuperblockEnabled() bool {
	return len(m.Harts) > 0 && m.Harts[0].sb.on
}

// LoadImage copies a binary image into RAM at addr.
func (m *Machine) LoadImage(addr uint64, img []byte) error {
	return m.Bus.WriteBytes(addr, img)
}

// Reset returns the machine to power-on state: every hart at the reset
// vector with a0 = hartid, the standard RISC-V boot convention (a1, the
// devicetree pointer, is left zero); CSRs (including PMP) at reset values;
// cycle/instret counters zeroed; LR/SC reservations dropped; and the
// devices — CLINT, PLIC, UART, DMA, IOPMP — back to their power-on state
// with mtime zero. Host-side hooks (Monitor, Watchdog, Trace, TimeFn,
// OnTrap) and the Perf counters survive, so a harness can keep observing
// across boots. A second boot on a reused machine is indistinguishable
// from a first boot on a fresh one.
func (m *Machine) Reset(pc uint64) {
	for _, h := range m.Harts {
		h.PC = pc
		h.Mode = rv.ModeM
		h.V = false
		h.Regs = [32]uint64{}
		h.Regs[10] = uint64(h.ID) // a0
		h.Waiting = false
		h.Stopped = false
		h.Halted = false
		h.HaltReason = ""
		h.Cycles, h.Instret, h.SInstret = 0, 0, 0
		h.resValid, h.resAddr = false, 0
		oldEpoch := h.CSR.PMP.MaxEpoch()
		h.CSR = newCSRFile(h.Cfg)
		// Reset is a power cycle: PMP locks are legitimately cleared. The
		// content ids, however, must stay unique per hart — a fresh file
		// restarts at zero, and external caches (TLB, superblocks, the
		// monitor's wall memo) tag entries with fill-time ids that a
		// rewound counter could eventually re-validate.
		h.CSR.PMP.AdvanceEpoch(oldEpoch + 1)
		h.inSlice, h.park = false, parkNone
		h.sb.armed = false
		if h.mem != nil {
			h.mem.Discard()
		}
		// The fresh CSR file brings a fresh PMP: reapply the fast-path mode
		// and drop every host cache keyed on the old file's epoch.
		h.SetFastPath(h.fast.on)
	}
	m.halted = false
	m.haltReason = ""
	m.timeRemainder = 0
	m.ev.horizon = 0
	m.Clint.Reset()
	m.Plic.Reset()
	m.Uart.Reset()
	m.DMA.Reset()
	if m.IOPMP != nil {
		m.IOPMP.Reset()
	}
}

// Step advances every runnable hart by one instruction and the global time
// by the cycles the slowest hart consumed (cores share a wall clock). This
// is always the sequential scheduler; Run dispatches on Sched.
func (m *Machine) Step() { m.stepSeq(1) }

// lineCache is the sequential scheduler's event horizon. The interrupt
// lines a hart sees are a function of the CLINT and PLIC registers and of
// mtime. Register changes move a device generation; mtime changes MTIP
// only when it reaches a comparator above it (or wraps). With
// T = mtime·CyclesPerTick + timeRemainder, every step raises T by exactly
// the cycles the slowest hart consumed, and a comparator c is reached at
// the first latch with T ≥ c·CyclesPerTick. So the cycles left until the
// next crossing is one counter, decremented per step, and the lines
// latched at the last relatch stay exact until a generation moves or the
// counter runs out.
type lineCache struct {
	// Each hart's latched lines live beside it (Hart.latched).
	clintGen, plicGen uint64 // device generations at the last latch
	// horizon is the consumption, in cycles, after which the next timer
	// crossing has happened; 0 forces a relatch at the next step.
	horizon   uint64
	relatches uint64 // latches taken with the fast path on (observability)
}

// never is the horizon of an event that cannot happen.
const never = ^uint64(0)

// cyclesUntil converts a distance of d ticks (d ≥ 1) into the cycles of
// consumption after which the tick is reached, given that rem cycles
// toward the next tick are already consumed. It saturates at zero and
// returns never when d·cpt overflows.
func cyclesUntil(d, cpt, rem uint64) uint64 {
	hi, lo := bits.Mul64(d, cpt)
	switch {
	case hi != 0:
		return never
	case lo <= rem:
		return 0
	}
	return lo - rem
}

// latch reads every hart's lines from the devices into the cache and
// re-derives the event horizon.
func (m *Machine) latch() {
	if m.fast {
		m.ev.relatches++
	}
	m.ev.clintGen, m.ev.plicGen = m.Clint.Gen(), m.Plic.Gen()
	for _, h := range m.Harts {
		h.latched = (m.Clint.Pending(h.ID) | m.Plic.Pending(h.ID)) & hwLineMask
	}
	m.ev.horizon = never
	if cpt := m.Cfg.CyclesPerTick; cpt != 0 {
		if d, ok := m.Clint.NextCrossing(); ok {
			m.ev.horizon = cyclesUntil(d, cpt, m.timeRemainder)
		}
	}
}

// stepSeq runs sequential machine steps until budget steps are done or
// the machine halts, and returns how many it ran (>= 1). A step is one
// instruction (or interrupt entry, or idle poll) per hart, in hart-ID
// order. With a budget above one and an eligible machine — a single hart
// with the superblock tier and fast paths on, and no per-step watchdog —
// one call runs one step through stepSeqOne instead, which may retire up
// to budget instructions from one translated superblock or batch idle
// polls; the return value is then the number of sequential steps that
// step was equivalent to.
//
// Every hart's interrupt lines are latched before any hart steps, so an
// MSIP or mtimecmp write during this step becomes visible to every hart
// at the same step boundary. (Sampling per hart just before its own step
// made visibility asymmetric by hart ID: hart 0's IPI reached hart 1
// within the step, but not vice versa.) With the fast path off the
// devices are read on every step; with it on, only when a device
// generation moved or the event horizon ran out. Either way the lines
// are installed into each hart from the cache, which also overwrites
// whatever a hart-level restore left in hwLines.
func (m *Machine) stepSeq(budget uint64) uint64 {
	// Superblocks stay off on multi-hart machines under this scheduler:
	// one hart leaping ahead would change the per-instruction round-robin
	// interleaving the machine's memory model is defined by.
	var one *Hart
	if budget > 1 && len(m.Harts) == 1 && m.fast {
		if h := m.Harts[0]; h.sb.on && h.fast.on && h.Watchdog == nil && !h.Stopped && !h.Halted {
			one = h
		} else {
			budget = 1 // eligibility is re-checked on every step
		}
	}
	for n := uint64(1); ; n++ {
		// The cached lines are exact unless the fast path is off, a
		// device generation moved, or the horizon ran out.
		if !m.fast || m.ev.horizon == 0 ||
			m.ev.clintGen != m.Clint.Gen() || m.ev.plicGen != m.Plic.Gen() {
			m.latch()
		}
		if one != nil {
			return m.stepSeqOne(one, budget)
		}
		var maxConsumed uint64
		for _, h := range m.Harts {
			h.CSR.hwLines = h.latched
			before := h.Cycles
			h.Step()
			if h.Watchdog != nil {
				h.Watchdog(h)
			}
			if c := h.Cycles - before; c > maxConsumed {
				maxConsumed = c
			}
			if h.Halted && !m.halted {
				m.halt("hart-halt: " + h.HaltReason)
			}
		}
		m.stepSeqClock(maxConsumed)
		if n >= budget || m.halted {
			return n
		}
	}
}

// stepSeqOne is stepSeq for the single eligible hart h. A running hart's
// step is armed for a superblock bounded by sbSeqHeadroom, so mtime, the
// interrupt latch points, and the whole architectural trace stay
// bit-identical to per-instruction stepping. A waiting hart's idle polls
// are batched by wfiBatch, falling through to a normal step when the hart
// is waking or the horizon is close.
func (m *Machine) stepSeqOne(h *Hart, budget uint64) uint64 {
	h.CSR.hwLines = h.latched
	before := h.Cycles
	steps := uint64(1)
	if h.Waiting {
		if k := m.wfiBatch(h, budget); k > 0 {
			m.stepSeqClock(h.Cycles - before)
			return k
		}
		h.Step()
	} else {
		h.sb.armed = true
		h.sb.cycleLimit = m.sbSeqHeadroom(h)
		h.sb.stepLimit = budget
		h.Step()
		h.sb.armed = false
		steps = h.sb.retired
	}
	if h.Halted && !m.halted {
		m.halt("hart-halt: " + h.HaltReason)
	}
	m.stepSeqClock(h.Cycles - before)
	return steps
}

// stepSeqClock advances the shared wall clock by the cycles the slowest
// hart consumed this step, and the event horizon with it. The division
// runs only when a whole tick has accumulated.
func (m *Machine) stepSeqClock(consumed uint64) {
	m.timeRemainder += consumed
	if cpt := m.Cfg.CyclesPerTick; cpt != 0 && m.timeRemainder >= cpt {
		m.Clint.Advance(m.timeRemainder / cpt)
		m.timeRemainder %= cpt
	}
	if consumed < m.ev.horizon {
		m.ev.horizon -= consumed
	} else {
		m.ev.horizon = 0
	}
}

// wfiBatch advances a WFI-waiting hart by up to budget idle polls in one
// call, returning how many sequential steps it was equivalent to (0 = not
// applicable, the caller must take a normal step). It is the idle-tail
// counterpart of the superblock cycle-budget argument: an idle poll reads
// only state that is constant until the event horizon (devices change
// state on MMIO or mtime crossings, never spontaneously, and no other hart
// runs — the caller gates on a single-hart machine), so k identical polls
// can be charged at once provided every batched poll's latch point comes
// before the horizon. sbSeqHeadroom gives exactly that distance. Cycles,
// mtime advancement, and the wake step all land bit-identically with
// per-instruction stepping.
func (m *Machine) wfiBatch(h *Hart, budget uint64) uint64 {
	// Mirror the idle-poll preconditions of Hart.Step exactly: a deliverable
	// or merely-pending-and-enabled interrupt wakes the hart, and Mie == 0
	// is a lockup halt — all handled by the normal step path.
	if h.mip()&h.CSR.Mie != 0 || h.CSR.Mie == 0 {
		return 0
	}
	w := h.Cfg.Cost.WFIIdle
	if w == 0 {
		return 0
	}
	l := m.sbSeqHeadroom(h)
	if l == 0 {
		return 0 // a comparator crosses at this step's Advance: step normally
	}
	// Poll i (1-based) latches with consumed (i-1)*w, which must stay
	// strictly below the headroom, so at most ceil(l/w) polls batch.
	k := budget
	if l != never && (l+w-1)/w < k {
		k = (l + w - 1) / w
	}
	if k > 1<<32 {
		k = 1 << 32 // bound the per-call leap; Run simply calls again
	}
	if k == 0 {
		return 0
	}
	h.Cycles += k * w
	return k
}

// sbSeqHeadroom returns how many cycles hart h may consume inside one
// sequential machine step before per-instruction stepping would have
// latched a different interrupt state between two instructions: the
// machine's event horizon, and under Sstc also the distance to the hart's
// stimecmp. Blocks must stop strictly below this limit. Timers are the
// only mip sources that can change mid-block: every other contributor
// needs an MMIO store, a CSR write, or a trap, all of which terminate a
// block (and external input from a harness arrives between Run calls, not
// mid-step). The horizon is current here: stepSeq refreshed it before any
// hart stepped.
func (m *Machine) sbSeqHeadroom(h *Hart) uint64 {
	l := m.ev.horizon
	if cpt := m.Cfg.CyclesPerTick; cpt != 0 && h.CSR.SstcEnabled() {
		// An expired stimecmp is pending (or masked) exactly as the
		// interpreter sees it; only one still ahead can fire mid-block.
		if now := m.Clint.Time(); h.CSR.Stimecmp > now {
			l = min(l, cyclesUntil(h.CSR.Stimecmp-now, cpt, m.timeRemainder))
		}
	}
	return l
}

// Run advances the machine until it halts or maxSteps machine steps elapse
// (under SchedPar, until every hart has executed up to maxSteps
// instructions). It returns the number of steps taken and whether the
// machine halted. Under SchedSeq each iteration may retire a whole
// superblock, counted as the equivalent number of per-instruction steps.
func (m *Machine) Run(maxSteps uint64) (uint64, bool) {
	if m.Sched == SchedPar {
		return m.runPar(maxSteps)
	}
	var steps uint64
	for steps < maxSteps && !m.halted {
		steps += m.stepSeq(maxSteps - steps)
	}
	return steps, m.halted
}

// RunUntil steps until cond returns true, the machine halts, or maxSteps
// elapse; it reports whether cond was met. Under SchedPar, cond is
// evaluated at quantum-round boundaries.
func (m *Machine) RunUntil(cond func() bool, maxSteps uint64) bool {
	if m.Sched == SchedPar {
		return m.runParUntil(cond, maxSteps)
	}
	for steps := uint64(0); steps < maxSteps && !m.halted; steps++ {
		if cond() {
			return true
		}
		m.Step()
	}
	return cond()
}

// Cycles returns hart 0's cycle counter, the conventional clock for
// single-workload measurements. It deliberately reads only hart 0 — on a
// multi-hart machine, use HartCycles to name the hart you mean.
func (m *Machine) Cycles() uint64 { return m.HartCycles(0) }

// HartCycles returns hart i's cycle counter.
func (m *Machine) HartCycles(i int) uint64 { return m.Harts[i].Cycles }

// DMARegionSize is the size of the DMA engine's register window.
const DMARegionSize = 0x1000

// DMAEngine is a deliberately simple DMA-capable device: software programs
// source, destination, and length, then writes the control register to
// trigger a copy performed directly on the physical bus — bypassing PMP,
// exactly the threat the paper's sandbox policy closes by revoking firmware
// access to DMA-capable MMIO regions (§4.3, §7).
type DMAEngine struct {
	bus  *mem.Bus
	src  uint64
	dst  uint64
	len  uint64
	stat uint64 // 0 = idle/ok, 1 = error, 2 = IOPMP denial

	// Check, when non-nil, is the IOPMP hook consulted before every
	// master access.
	Check func(addr uint64, size int, write bool) bool
}

// DMA register offsets.
const (
	DMASrc  = 0x00
	DMADst  = 0x08
	DMALen  = 0x10
	DMACtl  = 0x18
	DMAStat = 0x20
)

// NewDMAEngine returns a DMA engine operating on bus.
func NewDMAEngine(bus *mem.Bus) *DMAEngine { return &DMAEngine{bus: bus} }

// Reset returns the engine to power-on register values.
func (d *DMAEngine) Reset() {
	d.src, d.dst, d.len, d.stat = 0, 0, 0, 0
}

// Name implements mem.Device.
func (d *DMAEngine) Name() string { return "dma" }

// Load implements mem.Device.
func (d *DMAEngine) Load(off uint64, size int) (uint64, bool) {
	if size != 8 {
		return 0, false
	}
	switch off {
	case DMASrc:
		return d.src, true
	case DMADst:
		return d.dst, true
	case DMALen:
		return d.len, true
	case DMAStat:
		return d.stat, true
	}
	return 0, false
}

// Store implements mem.Device. Writing any value to DMACtl triggers the
// copy.
func (d *DMAEngine) Store(off uint64, size int, v uint64) bool {
	if size != 8 {
		return false
	}
	switch off {
	case DMASrc:
		d.src = v
	case DMADst:
		d.dst = v
	case DMALen:
		d.len = v
	case DMACtl:
		d.stat = 0
		if d.Check != nil &&
			(!d.Check(d.src, int(d.len), false) || !d.Check(d.dst, int(d.len), true)) {
			d.stat = 2 // blocked by the IOPMP
			return true
		}
		data, err := d.bus.ReadBytes(d.src, int(d.len))
		if err != nil {
			d.stat = 1
			return true
		}
		if err := d.bus.WriteBytes(d.dst, data); err != nil {
			d.stat = 1
		}
	default:
		return false
	}
	return true
}
