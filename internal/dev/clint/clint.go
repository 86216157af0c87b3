// Package clint implements the Core Local Interruptor: per-hart software
// interrupt bits (msip), per-hart timer compare registers (mtimecmp), and
// the global mtime counter. The register layout follows the de-facto
// standard SiFive CLINT map used by both evaluation platforms.
//
// The CLINT is the one MMIO device the paper's monitor must emulate
// (§4.3); this package is the *physical* device, while internal/core
// implements Miralis's virtual CLINT on top of it.
package clint

import "govfm/internal/rv"

// Register map offsets (relative to the CLINT base address).
const (
	MsipOff     = 0x0000 // 4 bytes per hart
	MtimecmpOff = 0x4000 // 8 bytes per hart
	MtimeOff    = 0xBFF8 // 8 bytes, global
	Size        = 0x10000
)

// Clint is the core-local interruptor for a fixed number of harts.
type Clint struct {
	msip     []uint32
	mtimecmp []uint64
	mtime    uint64

	// gen counts the mutations that can change Pending other than mtime
	// advancing: every MMIO store, SetMsip, SetMtimecmp, SetTime, Reset
	// and Restore. A machine that caches the interrupt lines re-derives
	// them when gen moves, and times mtime's own crossings itself.
	gen uint64

	// Perf counts programming operations, whether they arrive as MMIO
	// stores or through the monitor's fast-path setters.
	Perf struct {
		TimerPrograms uint64 // mtimecmp writes
		IPIPosts      uint64 // msip set operations (clears not counted)
	}
}

// New returns a CLINT serving nHarts harts, with all mtimecmp registers
// initialized to the all-ones "never" value, as firmware expects at reset.
func New(nHarts int) *Clint {
	c := &Clint{
		msip:     make([]uint32, nHarts),
		mtimecmp: make([]uint64, nHarts),
	}
	for i := range c.mtimecmp {
		c.mtimecmp[i] = ^uint64(0)
	}
	return c
}

// Name implements mem.Device.
func (c *Clint) Name() string { return "clint" }

// NumHarts returns the number of harts served.
func (c *Clint) NumHarts() int { return len(c.msip) }

// Reset returns the CLINT to power-on state: no IPIs pending, every
// comparator at all-ones (timer disarmed), mtime zero. The Perf counters
// (host-side observability) survive.
func (c *Clint) Reset() {
	c.gen++
	for i := range c.msip {
		c.msip[i] = 0
	}
	for i := range c.mtimecmp {
		c.mtimecmp[i] = ^uint64(0)
	}
	c.mtime = 0
}

// Load implements mem.Device.
func (c *Clint) Load(off uint64, size int) (uint64, bool) {
	switch {
	case off >= MsipOff && off < MsipOff+uint64(4*len(c.msip)):
		if size != 4 || off%4 != 0 {
			return 0, false
		}
		return uint64(c.msip[(off-MsipOff)/4]), true
	case off >= MtimecmpOff && off < MtimecmpOff+uint64(8*len(c.mtimecmp)):
		hart := (off - MtimecmpOff) / 8
		return readReg(c.mtimecmp[hart], off%8, size)
	case off >= MtimeOff && off < MtimeOff+8:
		return readReg(c.mtime, off-MtimeOff, size)
	}
	return 0, false
}

// Store implements mem.Device.
func (c *Clint) Store(off uint64, size int, v uint64) bool {
	c.gen++
	switch {
	case off >= MsipOff && off < MsipOff+uint64(4*len(c.msip)):
		if size != 4 || off%4 != 0 {
			return false
		}
		if v&1 != 0 {
			c.Perf.IPIPosts++
		}
		c.msip[(off-MsipOff)/4] = uint32(v & 1) // only bit 0 is writable
		return true
	case off >= MtimecmpOff && off < MtimecmpOff+uint64(8*len(c.mtimecmp)):
		hart := (off - MtimecmpOff) / 8
		c.Perf.TimerPrograms++
		return writeReg(&c.mtimecmp[hart], off%8, size, v)
	case off >= MtimeOff && off < MtimeOff+8:
		return writeReg(&c.mtime, off-MtimeOff, size, v)
	}
	return false
}

func readReg(reg, off uint64, size int) (uint64, bool) {
	switch {
	case size == 8 && off == 0:
		return reg, true
	case size == 4 && off == 0:
		return reg & 0xFFFF_FFFF, true
	case size == 4 && off == 4:
		return reg >> 32, true
	}
	return 0, false
}

func writeReg(reg *uint64, off uint64, size int, v uint64) bool {
	switch {
	case size == 8 && off == 0:
		*reg = v
	case size == 4 && off == 0:
		*reg = *reg&^0xFFFF_FFFF | v&0xFFFF_FFFF
	case size == 4 && off == 4:
		*reg = *reg&0xFFFF_FFFF | v<<32
	default:
		return false
	}
	return true
}

// Time returns the current mtime value.
func (c *Clint) Time() uint64 { return c.mtime }

// SetTime sets mtime (used by machine reset and tests).
func (c *Clint) SetTime(t uint64) {
	c.gen++
	c.mtime = t
}

// Advance adds ticks to mtime. It does not move Gen: a caller caching the
// lines must time the comparator crossings itself (NextCrossing).
func (c *Clint) Advance(ticks uint64) { c.mtime += ticks }

// Mtimecmp returns hart's timer deadline.
func (c *Clint) Mtimecmp(hart int) uint64 { return c.mtimecmp[hart] }

// SetMtimecmp sets hart's timer deadline (SBI set_timer fast path).
func (c *Clint) SetMtimecmp(hart int, v uint64) {
	c.Perf.TimerPrograms++
	c.gen++
	c.mtimecmp[hart] = v
}

// Msip reports whether hart's software-interrupt bit is set.
func (c *Clint) Msip(hart int) bool { return c.msip[hart] != 0 }

// SetMsip sets or clears hart's software-interrupt bit (IPI fast path).
func (c *Clint) SetMsip(hart int, set bool) {
	c.gen++
	if set {
		c.Perf.IPIPosts++
		c.msip[hart] = 1
	} else {
		c.msip[hart] = 0
	}
}

// Snapshot is a deep copy of the CLINT's register state.
type Snapshot struct {
	Msip     []uint32
	Mtimecmp []uint64
	Mtime    uint64
}

// Checkpoint captures the register state for later Restore.
func (c *Clint) Checkpoint() Snapshot {
	return Snapshot{
		Msip:     append([]uint32(nil), c.msip...),
		Mtimecmp: append([]uint64(nil), c.mtimecmp...),
		Mtime:    c.mtime,
	}
}

// Restore rewinds the CLINT to a checkpoint taken on it earlier.
func (c *Clint) Restore(s Snapshot) {
	c.gen++
	copy(c.msip, s.Msip)
	copy(c.mtimecmp, s.Mtimecmp)
	c.mtime = s.Mtime
}

// Pending returns the mip bits (MTIP, MSIP) this CLINT asserts for hart.
func (c *Clint) Pending(hart int) uint64 {
	var p uint64
	if c.msip[hart] != 0 {
		p |= 1 << rv.IntMSoft
	}
	if c.mtime >= c.mtimecmp[hart] {
		p |= 1 << rv.IntMTimer
	}
	return p
}

// Gen returns the mutation generation (see Clint.gen).
func (c *Clint) Gen() uint64 { return c.gen }

// NextCrossing returns how many ticks mtime must advance before the next
// change of some hart's MTIP line: the nearest comparator above mtime, or
// mtime wrapping to zero, whichever comes first. ok is false when mtime
// is zero and every comparator is at or below it — no advance of fewer
// than 2^64 ticks changes anything.
func (c *Clint) NextCrossing() (ticks uint64, ok bool) {
	ticks = -c.mtime // the wrap: 2^64 - mtime
	ok = c.mtime != 0
	for _, t := range c.mtimecmp {
		if t > c.mtime && (!ok || t-c.mtime < ticks) {
			ticks, ok = t-c.mtime, true
		}
	}
	return ticks, ok
}
