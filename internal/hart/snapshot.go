package hart

import "govfm/internal/rv"

// Snapshot is a deep copy of one hart's architectural state, sufficient to
// restore the hart to an exact earlier point. Lockstep differential
// harnesses checkpoint a pristine machine once and restore before every
// test case, so each case starts from a bit-identical machine regardless
// of what the previous case did.
type Snapshot struct {
	Regs     [32]uint64
	PC       uint64
	Mode     uint64
	V        bool
	Cycles   uint64
	Instret  uint64
	SInstret uint64

	Waiting    bool
	Stopped    bool
	Halted     bool
	HaltReason string

	ResValid bool
	ResAddr  uint64

	CSR CSRFile
}

// clone deep-copies a CSR file: the embedded PMP file and the custom-CSR
// map are the only reference-typed members.
func (c *CSRFile) clone() CSRFile {
	t := *c
	if c.PMP != nil {
		t.PMP = c.PMP.CloneSnapshot()
	}
	t.Custom = make(map[uint16]uint64, len(c.Custom))
	for k, v := range c.Custom {
		t.Custom[k] = v
	}
	return t
}

// Checkpoint captures the hart's complete architectural state.
func (h *Hart) Checkpoint() *Snapshot {
	return &Snapshot{
		Regs:       h.Regs,
		PC:         h.PC,
		Mode:       uint64(h.Mode),
		V:          h.V,
		Cycles:     h.Cycles,
		Instret:    h.Instret,
		SInstret:   h.SInstret,
		Waiting:    h.Waiting,
		Stopped:    h.Stopped,
		Halted:     h.Halted,
		HaltReason: h.HaltReason,
		ResValid:   h.resValid,
		ResAddr:    h.resAddr,
		CSR:        h.CSR.clone(),
	}
}

// Restore rewinds the hart to a checkpoint. The configuration pointer is
// preserved (a snapshot is only meaningful on the hart that took it or an
// identically configured one).
func (h *Hart) Restore(s *Snapshot) {
	cfg := h.CSR.cfg
	h.Regs = s.Regs
	h.PC = s.PC
	h.Mode = rv.Mode(s.Mode)
	h.V = s.V
	h.Cycles = s.Cycles
	h.Instret = s.Instret
	h.SInstret = s.SInstret
	h.Waiting = s.Waiting
	h.Stopped = s.Stopped
	h.Halted = s.Halted
	h.HaltReason = s.HaltReason
	h.resValid = s.ResValid
	h.resAddr = s.ResAddr
	curEpoch := h.CSR.PMP.MaxEpoch()
	h.CSR = s.CSR.clone()
	h.CSR.cfg = cfg
	// The restored PMP clone carries the snapshot-time fast flag and a
	// cleared content identity. Advance its id past every id the
	// pre-restore file issued so ids stay unique per hart (stale cache
	// entries tagged with a reused id could otherwise be re-validated),
	// reapply the mode, and drop every host cache.
	h.CSR.PMP.AdvanceEpoch(curEpoch + 1)
	h.CSR.PMP.SetFast(h.fast.on)
	h.flushDecode()
	h.flushTLB()
}

// MipSW returns the software-writable mip bits, for differential harnesses
// that need the raw component rather than the composed Mip view.
func (c *CSRFile) MipSW() uint64 { return c.mipSW }
