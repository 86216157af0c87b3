// Package plic implements a minimal Platform-Level Interrupt Controller
// sufficient for the simulated platforms: per-source priorities, pending
// bits, per-context enables and thresholds, and claim/complete. Contexts
// follow the conventional layout of two per hart: context 2*h is hart h's
// M-mode context, context 2*h+1 its S-mode context.
//
// The paper's monitor has experimental support for a virtual PLIC (§4.3);
// the physical device here lets that path be exercised, although — as on
// the paper's platforms — vendor firmware delegates all external
// interrupts to the OS.
package plic

import "govfm/internal/rv"

// Register map offsets.
const (
	PriorityOff = 0x000000 // 4 bytes per source
	PendingOff  = 0x001000 // bitmap, 4-byte words
	EnableOff   = 0x002000 // 0x80 per context, bitmap words
	ContextOff  = 0x200000 // 0x1000 per context: +0 threshold, +4 claim/complete
	ContextSize = 0x1000
	Size        = 0x400000
	MaxSources  = 32 // sources 1..31; source 0 is reserved
)

// Plic is the platform interrupt controller.
type Plic struct {
	nCtx      int
	priority  [MaxSources]uint32
	pending   uint32
	claimed   uint32
	enable    []uint32 // one word per context
	threshold []uint32

	// gen counts the mutations that can change Pending: every store, a
	// claim load, Raise, Lower, Reset and Restore. A machine that caches
	// the interrupt lines re-derives them when gen moves.
	gen uint64

	// Perf counts interrupt servicing operations.
	Perf struct {
		Claims    uint64 // successful claim reads (nonzero irq handed out)
		Completes uint64 // completion writes for a valid source
	}
}

// New returns a PLIC with two contexts (M and S) per hart.
func New(nHarts int) *Plic {
	n := 2 * nHarts
	return &Plic{
		nCtx:      n,
		enable:    make([]uint32, n),
		threshold: make([]uint32, n),
	}
}

// Reset returns the PLIC to power-on state: all priorities zero, nothing
// pending or claimed, every context disabled with threshold zero. The Perf
// counters (host-side) survive.
func (p *Plic) Reset() {
	p.priority = [MaxSources]uint32{}
	p.pending, p.claimed = 0, 0
	for i := range p.enable {
		p.enable[i] = 0
	}
	for i := range p.threshold {
		p.threshold[i] = 0
	}
	p.invalidate()
}

// invalidate records a mutation that can change Pending.
func (p *Plic) invalidate() { p.gen++ }

// Gen returns the mutation generation (see Plic.gen).
func (p *Plic) Gen() uint64 { return p.gen }

// Name implements mem.Device.
func (p *Plic) Name() string { return "plic" }

// Raise marks source irq (1..31) pending, as a device asserting its line.
func (p *Plic) Raise(irq int) {
	if irq > 0 && irq < MaxSources {
		p.pending |= 1 << irq
		p.invalidate()
	}
}

// Lower clears source irq's pending bit.
func (p *Plic) Lower(irq int) {
	if irq > 0 && irq < MaxSources {
		p.pending &^= 1 << irq
		p.invalidate()
	}
}

// best returns the highest-priority pending+enabled+unclaimed source above
// the context's threshold, or 0.
func (p *Plic) best(ctx int) int {
	bestIrq, bestPrio := 0, p.threshold[ctx]
	avail := p.pending &^ p.claimed & p.enable[ctx]
	for irq := 1; irq < MaxSources; irq++ {
		if avail&(1<<irq) != 0 && p.priority[irq] > bestPrio {
			bestIrq, bestPrio = irq, p.priority[irq]
		}
	}
	return bestIrq
}

// Pending returns the mip bits (MEIP and/or SEIP) the PLIC asserts for hart.
func (p *Plic) Pending(hart int) uint64 {
	var bitsOut uint64
	if 2*hart < p.nCtx && p.best(2*hart) != 0 {
		bitsOut |= 1 << rv.IntMExt
	}
	if 2*hart+1 < p.nCtx && p.best(2*hart+1) != 0 {
		bitsOut |= 1 << rv.IntSExt
	}
	return bitsOut
}

// Snapshot is a deep copy of the PLIC's architectural register state. The
// generation and the Perf counters (host-side) are not captured.
type Snapshot struct {
	Priority  [MaxSources]uint32
	Pending   uint32
	Claimed   uint32
	Enable    []uint32
	Threshold []uint32
}

// Checkpoint captures the register state for later Restore, on this PLIC
// or on a same-shape PLIC of a forked machine.
func (p *Plic) Checkpoint() Snapshot {
	return Snapshot{
		Priority:  p.priority,
		Pending:   p.pending,
		Claimed:   p.claimed,
		Enable:    append([]uint32(nil), p.enable...),
		Threshold: append([]uint32(nil), p.threshold...),
	}
}

// Restore rewinds the PLIC to a checkpoint taken on a same-shape PLIC.
func (p *Plic) Restore(s Snapshot) {
	p.priority = s.Priority
	p.pending = s.Pending
	p.claimed = s.Claimed
	copy(p.enable, s.Enable)
	copy(p.threshold, s.Threshold)
	p.invalidate()
}

// Load implements mem.Device. All PLIC registers are 32-bit.
func (p *Plic) Load(off uint64, size int) (uint64, bool) {
	if size != 4 || off%4 != 0 {
		return 0, false
	}
	switch {
	case off < PriorityOff+4*MaxSources:
		return uint64(p.priority[off/4]), true
	case off >= PendingOff && off < PendingOff+4:
		return uint64(p.pending), true
	case off >= EnableOff && off < EnableOff+uint64(0x80*p.nCtx):
		ctx := int((off - EnableOff) / 0x80)
		if (off-EnableOff)%0x80 != 0 {
			return 0, true // only word 0 holds sources 0..31
		}
		return uint64(p.enable[ctx]), true
	case off >= ContextOff:
		ctx := int((off - ContextOff) / ContextSize)
		if ctx >= p.nCtx {
			return 0, false
		}
		switch (off - ContextOff) % ContextSize {
		case 0:
			return uint64(p.threshold[ctx]), true
		case 4: // claim
			irq := p.best(ctx)
			if irq != 0 {
				p.Perf.Claims++
				p.claimed |= 1 << irq
				p.invalidate()
			}
			return uint64(irq), true
		}
	}
	return 0, false
}

// Store implements mem.Device.
func (p *Plic) Store(off uint64, size int, v uint64) bool {
	if size != 4 || off%4 != 0 {
		return false
	}
	p.invalidate() // every successful store below can change Pending
	switch {
	case off < PriorityOff+4*MaxSources:
		p.priority[off/4] = uint32(v)
		return true
	case off >= PendingOff && off < PendingOff+4:
		return false // pending is read-only
	case off >= EnableOff && off < EnableOff+uint64(0x80*p.nCtx):
		ctx := int((off - EnableOff) / 0x80)
		if (off-EnableOff)%0x80 == 0 {
			p.enable[ctx] = uint32(v) &^ 1 // source 0 cannot be enabled
		}
		return true
	case off >= ContextOff:
		ctx := int((off - ContextOff) / ContextSize)
		if ctx >= p.nCtx {
			return false
		}
		switch (off - ContextOff) % ContextSize {
		case 0:
			p.threshold[ctx] = uint32(v)
			return true
		case 4: // complete
			irq := int(v)
			if irq > 0 && irq < MaxSources {
				p.Perf.Completes++
				p.claimed &^= 1 << irq
			}
			return true
		}
	}
	return false
}
