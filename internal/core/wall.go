package core

import (
	"fmt"
	"hash/fnv"

	"govfm/internal/mem"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// The Dorami wall (PAPERS.md, "Privilege Separating Security Monitor on
// RISC-V TEEs"): the monitor's own memory — fault ring, boot snapshots,
// vPMP shadow, everything in [MiralisBase, MiralisBase+MiralisSize) — is
// covered by a LOCKED zero-permission PMP entry. A locked entry binds
// M-mode too, so even a hosted firmware that somehow reached physical
// M-mode privileges could not read or corrupt monitor state; only the
// monitor's own Force* reprogramming path (the hardware reset analogue)
// can touch the entry. The invariant is re-derived from the live PMP file
// after every world switch (checkWallAfterSwitchMemo); a breach means the
// monitor can no longer trust its own state and the machine is halted.

// wallCfg is the exact cfg byte the wall entry must hold: locked, NAPOT
// address matching, no permissions.
const wallCfg = pmp.CfgL | pmp.ANapot<<3

// CheckWall asserts the Dorami-wall invariant on one hart's physical PMP
// file: the self-protection entry is present, locked, correctly sized,
// and actually denies access to monitor memory in every simulated mode.
// Returns nil when the wall holds. It always runs the full behavioural
// probe; chaos, fault injection and the TEE fuzzer use it as their oracle.
func (m *Monitor) CheckWall(ctx *HartCtx) error {
	phys := ctx.Hart.CSR.PMP
	if phys.NumEntries() <= pmpSelf {
		return fmt.Errorf("wall: PMP file has no entry %d", pmpSelf)
	}
	if cfg := phys.Cfg(pmpSelf); cfg != wallCfg {
		return fmt.Errorf("wall: entry %d cfg=%#x, want %#x (locked NAPOT, no perms)",
			pmpSelf, cfg, wallCfg)
	}
	if addr := phys.Addr(pmpSelf); addr != pmp.NAPOTAddr(MiralisBase, MiralisSize) {
		return fmt.Errorf("wall: entry %d addr=%#x, want %#x (Miralis region)",
			pmpSelf, addr, pmp.NAPOTAddr(MiralisBase, MiralisSize))
	}
	// Behavioural probe: the cfg/addr fields could be right while a
	// higher-priority artifact still grants access, so ask the file for
	// actual verdicts at the region's edges and middle. A locked match
	// constrains every mode, M included.
	for _, addr := range []uint64{
		MiralisBase,
		MiralisBase + MiralisSize/2,
		MiralisBase + MiralisSize - 8,
	} {
		for _, acc := range []mem.AccessType{mem.Read, mem.Write, mem.Exec} {
			for _, mode := range []rv.Mode{rv.ModeU, rv.ModeS, rv.ModeM} {
				if phys.Check(addr, 8, acc, mode) {
					return fmt.Errorf("wall: %v %v allowed at %#x", mode, acc, addr)
				}
			}
		}
	}
	return nil
}

// wallVerdict is one world's wall memo: the physical PMP content id on
// which the full check passed.
type wallVerdict struct {
	id uint64
	ok bool
}

// checkWallAfterSwitchMemo is the world-switch form of CheckWall, memoized
// per world on the physical PMP file's content id. The memo is sound
// because CheckWall's verdict is a pure function of the file's entries,
// and within one file's lifetime equal ids mean equal entries
// (pmp.File.Epoch); a monitor that alternates between the firmware and OS
// views therefore runs the full check once per view. This is Dorami's
// argument for trusting a locked entry between checks, made exact. The ids
// stay unique per hart across Reset and Restore (pmp.File.AdvanceEpoch),
// and a fork starts with an empty memo, so no stale verdict can match a
// replaced file. A memo hit still compares the live wall entry.
func (m *Monitor) checkWallAfterSwitchMemo(ctx *HartCtx) error {
	phys := ctx.Hart.CSR.PMP
	memo := &ctx.wallMemo[ctx.World()]
	if memo.ok && memo.id == phys.Epoch() &&
		phys.Cfg(pmpSelf) == wallCfg && phys.Addr(pmpSelf) == pmp.NAPOTAddr(MiralisBase, MiralisSize) {
		return nil
	}
	ctx.Stats.WallProbes++
	if err := m.CheckWall(ctx); err != nil {
		*memo = wallVerdict{}
		return err
	}
	*memo = wallVerdict{id: phys.Epoch(), ok: true}
	return nil
}

// MonitorStateHash fingerprints the monitor state the Dorami wall
// protects: the boot firmware image copy and the per-hart boot snapshots
// containment restarts from. Nothing the hosted firmware or OS does may
// ever change this value; the TEE chaos campaign compares it before and
// after every fault sweep. (The fault ring is deliberately excluded — it
// legitimately grows as faults are recorded.)
func (m *Monitor) MonitorStateHash() uint64 {
	fh := fnv.New64a()
	fh.Write(m.bootFW)
	for _, s := range m.bootSnaps {
		if s == nil {
			continue
		}
		fmt.Fprintf(fh, "%v %v %v %v %v %v %v %v",
			s.Regs, s.PC, s.Mode, s.CSR.Mstatus, s.CSR.Mtvec, s.CSR.Mepc,
			s.CSR.Medeleg, s.CSR.Satp)
		for i := 0; i < s.CSR.PMP.NumEntries(); i++ {
			fmt.Fprintf(fh, ";%d:%x:%x", i, s.CSR.PMP.Cfg(i), s.CSR.PMP.Addr(i))
		}
	}
	return fh.Sum64()
}

// checkWallAfterSwitch runs the wall invariant on the world-switch path.
// A passing check bumps the per-hart counter (campaigns assert
// WallChecks == WorldSwitches); a failing one records a FaultWallBreach
// and halts the machine.
func (m *Monitor) checkWallAfterSwitch(ctx *HartCtx) {
	if err := m.checkWallAfterSwitchMemo(ctx); err != nil {
		f := m.newFault(ctx, FaultWallBreach, err.Error())
		m.recordFault(f)
		m.halt(ctx, "monitor wall breached: "+err.Error())
		return
	}
	ctx.Stats.WallChecks++
}
