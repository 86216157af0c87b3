package hart

// Quantum-based parallel scheduling (the MTTCG-style execution engine).
//
// In SchedPar mode each hart runs on its own goroutine for a slice of up to
// Quantum simulated cycles, then all harts meet at a barrier. During a
// slice the machine is frozen from the hart's point of view:
//
//   - shared RAM is read-only; the hart's stores go to a private
//     write buffer (mem.Port) with store→load forwarding, committed to RAM
//     at the barrier in hart-ID order;
//   - mtime and the interrupt lines hold the values latched when the round
//     started (mtime advances, and CLINT/PLIC state changes, only between
//     rounds);
//   - an instruction that needs anything beyond that — any MMIO access, or
//     an AMO (a globally ordered read-modify-write) — parks: the slice ends
//     with no architectural effect from that instruction, and the barrier
//     replays it with direct bus access (parkReplay);
//   - a trap that architecturally enters M-mode on a monitored machine
//     completes its trap entry, then parks so HandleMTrap (shared host-side
//     monitor state) runs at the barrier (parkMonitor).
//
// The barrier applies all cross-hart effects in ascending hart-ID order, so
// a parallel run is reproducible run-to-run regardless of how the host
// schedules the goroutines. Cross-hart visibility (IPIs, stores, timer
// programming) is quantum-granular: an effect produced in round r is seen
// by other harts in round r+1 — the parallel generalization of the
// sequential scheduler's latch-at-step-start contract.
//
// See DESIGN.md, "Parallel hart scheduling vs. the shared wall clock".

import (
	"fmt"
	"sync"
)

// SchedKind selects the machine's execution scheduler.
type SchedKind int

const (
	// SchedSeq is the classic deterministic round-robin: one instruction
	// per hart per machine step, all on one goroutine.
	SchedSeq SchedKind = iota
	// SchedPar runs each hart on its own goroutine for a quantum of
	// simulated cycles between deterministic barriers.
	SchedPar
)

func (k SchedKind) String() string {
	switch k {
	case SchedSeq:
		return "seq"
	case SchedPar:
		return "par"
	}
	return fmt.Sprintf("SchedKind(%d)", int(k))
}

// ParseSched maps a -sched flag value to a SchedKind.
func ParseSched(s string) (SchedKind, error) {
	switch s {
	case "seq", "":
		return SchedSeq, nil
	case "par":
		return SchedPar, nil
	}
	return SchedSeq, fmt.Errorf("unknown scheduler %q (want seq or par)", s)
}

// DefaultQuantum is the slice length in simulated cycles when
// Machine.Quantum is unset.
const DefaultQuantum = 1024

// parkKind records why a hart's slice ended before its quantum.
type parkKind uint8

const (
	parkNone parkKind = iota
	// parkReplay: the current instruction needs quiesced-machine resources
	// (a device access or an AMO). Nothing architectural changed; the
	// barrier replays the instruction with direct bus access.
	parkReplay
	// parkMonitor: a trap completed architectural M-mode entry; HandleMTrap
	// is deferred to the barrier.
	parkMonitor
)

// errParked is the sentinel the memory paths return when an access parked
// instead of faulting. It never reaches Exception: exec and Step intercept
// it. The impossible cause value makes any leak loudly visible.
var errParked = &Exc{Cause: ^uint64(0), Tval: ^uint64(0)}

// parScratch holds the per-round working state so rounds allocate nothing.
type parScratch struct {
	before   []uint64 // per-hart cycle counter at round start
	progress []uint64 // per-hart counted steps this round
	caps     []uint64 // per-hart step caps (budget mode)
	kill     []func(uint64)
	wg       sync.WaitGroup
}

func (m *Machine) initParScratch() {
	n := len(m.Harts)
	m.par.before = make([]uint64, n)
	m.par.progress = make([]uint64, n)
	m.par.caps = make([]uint64, n)
	m.par.kill = make([]func(uint64), n)
	for i, h := range m.Harts {
		h := h
		m.par.kill[i] = func(wordPA uint64) {
			for _, p := range h.peers {
				p.KillReservation(wordPA)
			}
		}
	}
}

// quantum returns the effective slice length.
func (m *Machine) quantum() uint64 {
	if m.Quantum > 0 {
		return m.Quantum
	}
	return DefaultQuantum
}

// runSlice executes hart h for one slice: until quantum cycles are
// consumed, stepCap instructions are counted, the write buffer fills, the
// hart halts or stops, or an instruction parks. It returns the number of
// counted steps; a parkReplay'd instruction is not counted (the barrier
// replay counts it instead).
func (h *Hart) runSlice(quantum, stepCap uint64) uint64 {
	h.inSlice = true
	h.park = parkNone
	h.mem.BeginSlice()
	start := h.Cycles
	// The superblock tier is armed per step with the remaining quantum and
	// step cap as limits, so a block stops exactly where this loop's own
	// conditions would have stopped per-instruction execution. The slice
	// is the natural home for blocks: interrupt lines and mtime are frozen
	// for the whole round, so no new interrupt can appear mid-block.
	arm := h.sb.on && h.fast.on
	var steps uint64
	for steps < stepCap && !h.Halted && !h.Stopped && h.Cycles-start < quantum {
		if arm && stepCap-steps > 1 {
			h.sb.armed = true
			h.sb.cycleLimit = quantum - (h.Cycles - start)
			h.sb.stepLimit = stepCap - steps
			h.Step()
			h.sb.armed = false
		} else {
			h.Step()
		}
		if h.park == parkReplay {
			break
		}
		steps += h.sb.retired
		if h.park != parkNone || h.mem.Full() {
			break
		}
	}
	h.inSlice = false
	return steps
}

// parRound runs one quantum round: latch lines, run every hart's slice
// concurrently, then apply all cross-hart effects at the barrier in
// ascending hart-ID order. caps bounds each hart's counted steps (the
// budget harness narrows it; runPar passes the quantum). Results land in
// m.par.progress; the return value is the slowest hart's cycle consumption.
func (m *Machine) parRound(quantum uint64, caps []uint64) uint64 {
	m.inRound.Store(true)
	defer m.inRound.Store(false)
	harts := m.Harts
	// Latch every hart's interrupt lines from the quiesced devices. The
	// lines stay frozen for the whole round; effects produced during the
	// round become visible at the next round's latch.
	for i, h := range harts {
		h.CSR.SetHWLines(m.Clint.Pending(h.ID) | m.Plic.Pending(h.ID))
		m.par.before[i] = h.Cycles
	}
	if len(harts) == 1 {
		m.par.progress[0] = harts[0].runSlice(quantum, caps[0])
	} else {
		for i, h := range harts {
			i, h := i, h
			m.par.wg.Add(1)
			go func() {
				defer m.par.wg.Done()
				m.par.progress[i] = h.runSlice(quantum, caps[i])
			}()
		}
		m.par.wg.Wait()
	}

	// Barrier. Stage 1: commit write buffers hart-by-hart (ascending ID —
	// on overlapping stores the highest hart ID wins, deterministically),
	// firing write watches and killing peers' LR/SC reservations.
	for i, h := range harts {
		h.mem.Commit(m.par.kill[i])
	}
	// Stage 2: replay parked instructions / run deferred monitor entries,
	// in hart-ID order, with direct bus access. A replayed step may take a
	// pending interrupt instead of the instruction, or trap into the
	// monitor inline — both fine, the machine is quiesced here.
	for i, h := range harts {
		switch h.park {
		case parkReplay:
			h.park = parkNone
			if caps[i] > 0 {
				h.Step()
				m.par.progress[i]++
			}
		case parkMonitor:
			h.park = parkNone
			h.Trace.Begin(int32(h.ID), h.Cycles, "m-trap")
			h.Monitor.HandleMTrap(h)
			h.Trace.End(int32(h.ID), h.Cycles)
		}
	}
	// Stage 3: watchdogs (quantum-granular in this mode) and halt
	// propagation.
	for _, h := range harts {
		if h.Watchdog != nil {
			h.Watchdog(h)
		}
		if h.Halted && !m.halted {
			m.halt("hart-halt: " + h.HaltReason)
		}
	}
	// Stage 4: advance the shared wall clock by the slowest hart's
	// consumption, exactly as the sequential scheduler does per step.
	var maxConsumed uint64
	for i, h := range harts {
		if c := h.Cycles - m.par.before[i]; c > maxConsumed {
			maxConsumed = c
		}
	}
	m.timeRemainder += maxConsumed
	if m.Cfg.CyclesPerTick > 0 {
		m.Clint.Advance(m.timeRemainder / m.Cfg.CyclesPerTick)
		m.timeRemainder %= m.Cfg.CyclesPerTick
	}
	// The sequential scheduler's event horizon did not see this advance.
	m.ev.horizon = 0
	if m.trace != nil {
		m.trace.Instant(0, harts[0].Cycles, "sched:barrier")
	}
	return maxConsumed
}

// runPar is Machine.Run under the parallel scheduler. maxSteps is a
// per-hart instruction budget, matching the sequential scheduler where one
// machine step is one instruction per hart.
func (m *Machine) runPar(maxSteps uint64) (uint64, bool) {
	if m.par.progress == nil {
		m.initParScratch()
	}
	q := m.quantum()
	var done uint64
	for done < maxSteps && !m.halted {
		cap := maxSteps - done
		if cap > q {
			cap = q
		}
		for i := range m.par.caps {
			m.par.caps[i] = cap
		}
		m.parRound(q, m.par.caps)
		var pmax uint64
		for _, p := range m.par.progress {
			if p > pmax {
				pmax = p
			}
		}
		if pmax == 0 {
			// Every hart is stopped, halted, or capped: the equivalent
			// sequential steps would all be no-ops. Burn the budget.
			pmax = cap
		}
		done += pmax
	}
	return done, m.halted
}

// runParUntil is Machine.RunUntil under the parallel scheduler; cond is
// evaluated at round boundaries.
func (m *Machine) runParUntil(cond func() bool, maxSteps uint64) bool {
	if m.par.progress == nil {
		m.initParScratch()
	}
	q := m.quantum()
	var done uint64
	for done < maxSteps && !m.halted {
		if cond() {
			return true
		}
		cap := maxSteps - done
		if cap > q {
			cap = q
		}
		for i := range m.par.caps {
			m.par.caps[i] = cap
		}
		m.parRound(q, m.par.caps)
		var pmax uint64
		for _, p := range m.par.progress {
			if p > pmax {
				pmax = p
			}
		}
		if pmax == 0 {
			pmax = cap
		}
		done += pmax
	}
	return cond()
}

// RunParBudget gives every hart exactly k step-calls under the parallel
// scheduler — the parallel analogue of k sequential Machine.Steps, where
// every hart receives exactly one Hart.Step call per machine step (halted
// or stopped harts no-op theirs). It does not stop early when the machine
// halts, for the same reason: the sequential round loop finishes its k
// steps regardless, with post-halt calls as no-ops. Differential harnesses
// use it to compare a parallel end state with a sequential run of exactly k
// steps.
func (m *Machine) RunParBudget(k uint64) {
	if m.par.progress == nil {
		m.initParScratch()
	}
	q := m.quantum()
	remaining := make([]uint64, len(m.Harts))
	for i := range remaining {
		remaining[i] = k
	}
	for {
		anyLeft := false
		for i := range remaining {
			c := remaining[i]
			if c > q {
				c = q
			}
			m.par.caps[i] = c
			if c > 0 {
				anyLeft = true
			}
		}
		if !anyLeft {
			return
		}
		m.parRound(q, m.par.caps)
		stuck := true
		for i, p := range m.par.progress {
			if p > remaining[i] {
				p = remaining[i]
			}
			remaining[i] -= p
			if p > 0 {
				stuck = false
			}
		}
		if stuck {
			// No hart can advance (all halted/stopped): the remaining
			// sequential calls would all be no-ops.
			return
		}
	}
}
