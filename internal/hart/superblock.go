package hart

// Superblock binary-translation tier. Rides the predecode cache in
// hostfast.go: once a straight-line region gets hot, its instructions are
// translated into a chain of fused Go closures (threaded code) executed
// whole per dispatch, collapsing the per-instruction fetch/decode/dispatch
// overhead while charging the exact documented per-instruction simulated
// cycles. Like everything in hostfast.go this trades host time only — the
// architectural state and cycle counters are bit-identical with the tier on
// or off (enforced by the equivalence gate in internal/verif/fuzz and the
// three-tier assertion in bench.SimHost).
//
// The safety argument has three legs (see DESIGN.md, "Superblock
// translation vs. the simulated cycle model"):
//
//  1. Entry guard. A block is only dispatched when its guard vector
//     matches: decode-page generation (catches self-modifying code),
//     privilege mode, satp, and PMP content id (catch remapping and
//     reprotection; a return to a PMP view seen before gets its id back,
//     so a world switch does not miss). The dispatch point itself sits
//     after Step's pending-interrupt check, so a block never starts with
//     a deliverable interrupt pending. Data accesses re-validate per
//     access against a TLB key (mmu.Key) hoisted once per dispatch —
//     sound because every instruction that could change it (CSR writes,
//     xRET, traps) is a block terminator.
//
//  2. Cycle-budget headroom. Blocks stop before the point where a
//     per-instruction scheduler would have intervened: under SchedPar the
//     limit is the remaining quantum, under SchedSeq the machine's event
//     horizon (Machine.sbSeqHeadroom), so interrupt latch
//     points — and therefore the whole architectural trace — land exactly
//     where the interpreter would put them.
//
//  3. Zero-residue fallback. Ops are compiled so that all failure checks
//     (alignment, translation, PMP, MMIO) precede every architectural
//     write; an op that cannot complete aborts the block with the
//     interpreter re-executing that op from scratch. Cycles charged by the
//     aborting op are rolled back; instructions already retired by the
//     block are exactly the instructions the interpreter would have
//     retired.
//
// Translations are host state: they are never snapshotted (hart.Image
// carries only the on/off switch) and a forked child re-translates from
// its own heat counters.

import (
	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/rv"
)

const (
	// sbHotThreshold is how many dispatches a block-entry slot must see
	// before it is translated.
	sbHotThreshold = 16
	// sbMaxOps bounds the instructions per block (also bounded by the
	// 4KiB page end — blocks never cross a page).
	sbMaxOps = 32
	// sbMinOps is the minimum block length worth dispatching; shorter
	// regions stay on the interpreter (a sentinel block marks them so the
	// translator is not retried every dispatch).
	sbMinOps = 2
)

// sbOp is one fused instruction: it executes against the hart and returns
// the next PC, or ok=false when the instruction cannot complete in-block
// (fault, MMIO, translation miss that must park) and the interpreter must
// re-execute it.
type sbOp func(h *Hart) (uint64, bool)

// sblock is one translated superblock, keyed by (decPage, entry slot) —
// i.e. by physical location, so aliased virtual mappings share it. ops is
// nil for a sentinel recording an untranslatable entry point.
type sblock struct {
	gen      uint32 // decPage.gen at translation: stale bytes never run
	mode     rv.Mode
	satp     uint64
	pmpEpoch uint64
	ops      []sbOp
}

// sbState is the hart's per-dispatch superblock state. armed is set by the
// scheduler around a Step call that may run a block; cycleLimit/stepLimit
// bound the block so scheduling decisions land exactly where
// per-instruction stepping would put them; retired reports how many
// sequential steps the Step call was equivalent to (1 for every non-block
// step, including no-op steps of halted harts).
type sbState struct {
	on         bool
	armed      bool
	cycleLimit uint64
	stepLimit  uint64
	retired    uint64

	// Per-dispatch hoisted data-access state: the effective privilege
	// (MPRV honoured), whether translation is bare, and the TLB validity
	// key. Invariant mid-block: CSR writes, traps, and xrets all
	// terminate blocks.
	priv rv.Mode
	bare bool
	key  mmu.Key

	// endAfter asks the running block to stop after the current op: set
	// by stores into (and page walks through) pages holding cached
	// decodes, where continuing could execute stale translations the
	// interpreter would re-fetch.
	endAfter bool
}

// SetSuperblock switches the superblock tier on or off, dropping every
// translated block either way (flushDecode drops the pages that own them).
func (h *Hart) SetSuperblock(on bool) {
	h.sb.on = on
	h.flushDecode()
}

// SuperblockEnabled reports whether the superblock tier is in use.
func (h *Hart) SuperblockEnabled() bool { return h.sb.on }

// sbTry attempts to run a superblock at the instruction fetchFast just
// returned. It returns the number of instructions retired (0 = no block
// ran; the caller interprets d as usual). Heat accounting, translation,
// and the entry guard all live here.
func (h *Hart) sbTry() uint64 {
	if h.V {
		// Guest (V=1) execution stays on the interpreter: superblocks are
		// keyed and guarded on single-stage state only, and the H-mode trap
		// funnels (virtual instructions, guest-page faults) are not worth a
		// third compiled encoding of the gating rules.
		return 0
	}
	if _, virt := h.effectivePrivV(); virt {
		return 0 // MPRV+MPV data accesses need the two-stage walk
	}
	dp := h.fast.fetchDP
	if dp == nil {
		return 0 // MMIO fetch: never translated
	}
	slot := h.fast.fetchSlot
	var sb *sblock
	if dp.blocks != nil {
		sb = dp.blocks[slot]
	}
	if sb == nil {
		if dp.hot == nil {
			dp.hot = new([1024]uint8)
		}
		if dp.hot[slot] < sbHotThreshold {
			dp.hot[slot]++
			return 0
		}
		dp.hot[slot] = 0
		sb = h.sbTranslate(dp, slot)
	} else if sb.gen != dp.gen {
		// Stale code bytes (self-modification): the translation is garbage.
		// Drop it and re-heat rather than retranslating immediately, so a
		// store-thrashed page cannot spend its time in the translator.
		h.Perf.SBGuardMisses++
		dp.blocks[slot] = nil
		return 0
	} else if sb.mode != h.Mode || sb.satp != h.CSR.Satp ||
		sb.pmpEpoch != h.CSR.PMP.Epoch() {
		// Environment guard miss. Unlike a gen miss the translation itself
		// is still good — these fields only protect the translation-time
		// per-op execute-permission checks (data accesses revalidate per
		// dispatch via sb.key, and blocks are keyed physically so satp
		// cannot change what they execute). Re-check the permissions under
		// the current environment and refresh the guard instead of
		// dropping the block: a monitor that swaps PMP views on every
		// world switch would otherwise force a re-heat + retranslation
		// per switch, costing far more than it saves.
		h.Perf.SBGuardMisses++
		if sb.ops == nil || !h.sbRevalidate(sb) {
			dp.blocks[slot] = nil
			return 0
		}
	}
	if sb.ops == nil {
		return 0 // sentinel: entry point known untranslatable
	}
	return h.runBlock(sb)
}

// sbRevalidate re-runs the translation-time execute-permission checks for
// every op of sb under the hart's current mode and PMP state, refreshing
// the guard vector on success. The fetch PA of the entry instruction is
// authoritative: the dispatcher only calls this right after fetchFast
// resolved the entry, and blocks never cross their 4KiB page.
func (h *Hart) sbRevalidate(sb *sblock) bool {
	pa := h.fast.fetchPA
	for i := range sb.ops {
		if !h.CSR.PMP.Check(pa+uint64(4*i), 4, mem.Exec, h.Mode) {
			return false
		}
	}
	sb.mode, sb.satp, sb.pmpEpoch = h.Mode, h.CSR.Satp, h.CSR.PMP.Epoch()
	return true
}

// sbTranslate builds (and installs) the superblock entered at slot of dp.
// The walk decodes forward from the fetch PA, reusing predecoded slots
// where valid, and stops at the first ineligible or illegal instruction, a
// block terminator (jal/jalr/branch), the page end, or sbMaxOps. Every
// op's encoding is validated here, so the compiled ALU closures are
// infallible; every op's PMP execute permission is checked here and
// revalidated wholesale by the pmpEpoch (PMP content id) guard.
func (h *Hart) sbTranslate(dp *decPage, slot int) *sblock {
	sb := &sblock{
		gen:      dp.gen,
		mode:     h.Mode,
		satp:     h.CSR.Satp,
		pmpEpoch: h.CSR.PMP.Epoch(),
	}
	if dp.blocks == nil {
		dp.blocks = new([1024]*sblock)
	}
	dp.blocks[slot] = sb
	pageBase := h.fast.fetchPA &^ 4095
	ops := make([]sbOp, 0, sbMaxOps)
	for i := slot; i < 1024 && len(ops) < sbMaxOps; i++ {
		pa := pageBase | uint64(i)<<2
		if !h.CSR.PMP.Check(pa, 4, mem.Exec, h.Mode) {
			break
		}
		var d rv.Decoded
		if dp.tags[i] == dp.gen {
			d = dp.ins[i]
		} else {
			v, ok := h.mem.Load(pa, 4)
			if !ok {
				break
			}
			d = rv.Decode(uint32(v))
		}
		fn, term := h.sbCompile(&d)
		if fn == nil {
			break
		}
		ops = append(ops, fn)
		if term {
			break
		}
	}
	if len(ops) < sbMinOps {
		return sb // sentinel (ops stays nil)
	}
	sb.ops = ops
	h.Perf.SBTranslations++
	return sb
}

// runBlock executes a guarded block, retiring per-instruction cycle and
// instret counts identical to the interpreter's, and returns how many
// instructions retired. On an op failure the op's cycle charges are rolled
// back and the interpreter resumes at that op with zero residue.
func (h *Hart) runBlock(sb *sblock) uint64 {
	priv := h.effectivePriv()
	h.sb.priv = priv
	h.sb.bare = priv == rv.ModeM || rv.SatpMode(h.CSR.Satp) != rv.SatpModeSv39
	if !h.sb.bare {
		h.sb.key = h.tlbKey(priv, false)
	}
	h.sb.endAfter = false
	start := h.Cycles
	limitC, limitS := h.sb.cycleLimit, h.sb.stepLimit
	smode := h.Mode == rv.ModeS
	cInstr := h.Cfg.Cost.Instr
	var n uint64
	for _, fn := range sb.ops {
		// Pre-op scheduling check, mirroring the per-step loop conditions
		// of runSlice (quantum) and stepSeq (timer headroom, budget). The
		// entry op is exempt: the scheduler only armed us because one more
		// step was due.
		if n > 0 && (h.Cycles-start >= limitC || n >= limitS ||
			h.sb.endAfter || h.mem.Full()) {
			break
		}
		cyc0 := h.Cycles
		h.Cycles += cInstr
		next, ok := fn(h)
		if !ok {
			h.Cycles = cyc0 // roll back this op entirely; interpreter redoes it
			h.Perf.SBAborts++
			break
		}
		h.PC = next
		h.Instret++
		if smode {
			h.SInstret++
		}
		n++
	}
	if n > 0 {
		h.Perf.SBHits++
		h.Perf.SBRetired += n
	}
	return n
}

// sbTranslateData maps a data virtual address inside a block using the
// hoisted per-dispatch key, falling back to a full walk on a TLB miss —
// exactly translate()'s behaviour. A failed walk aborts the block (the
// interpreter re-runs the op and raises the fault or parks).
func (h *Hart) sbTranslateData(va uint64, acc mem.AccessType) (uint64, bool) {
	if h.sb.bare {
		return va, true
	}
	vpn := va >> 12
	if paPage, ok := h.fast.tlb.LookupK(acc, vpn, h.sb.key); ok {
		h.Perf.TLBHits++
		return paPage | va&4095, true
	}
	h.Perf.TLBMisses++
	h.Perf.PageWalks++
	res := mmu.Translate(h.mmuEnv(h.sb.priv, false), va, acc)
	if !res.OK {
		return 0, false
	}
	h.tlbFill(acc, vpn, h.sb.key, &res)
	// The walk may have stored A/D bits into a page that also holds
	// cached decodes — possibly this very block's — which the interpreter
	// would observe at its next fetch. Stop after this op.
	for i := 0; i < res.WalkLen; i++ {
		if _, cached := h.fast.pages[res.Walk[i]&^4095]; cached {
			h.sb.endAfter = true
			break
		}
	}
	return res.PA, true
}

// sbLoad performs an in-block data load. All checks precede the access;
// any failure aborts the block with nothing charged or written.
func (h *Hart) sbLoad(va uint64, size int) (uint64, bool) {
	if va%uint64(size) != 0 && !h.Cfg.HWMisaligned {
		return 0, false
	}
	pa, ok := h.sbTranslateData(va, mem.Read)
	if !ok {
		return 0, false
	}
	if !h.CSR.PMP.Check(pa, size, mem.Read, h.sb.priv) {
		return 0, false
	}
	if !h.mem.IsRAM(pa, size) {
		return 0, false // MMIO: interpreter handles (device or park)
	}
	h.charge(h.Cfg.Cost.MemAccess)
	return h.mem.Load(pa, size)
}

// sbStore performs an in-block data store, mirroring MemAccess(Write)
// including the LR/SC reservation kills. Stores into pages holding cached
// decodes end the block after this op (self-modifying code: in sequential
// mode the write watch has already invalidated the page synchronously; the
// interpreter refetches from the next instruction on, and so must we).
func (h *Hart) sbStore(va uint64, size int, value uint64) bool {
	if va%uint64(size) != 0 && !h.Cfg.HWMisaligned {
		return false
	}
	pa, ok := h.sbTranslateData(va, mem.Write)
	if !ok {
		return false
	}
	if !h.CSR.PMP.Check(pa, size, mem.Write, h.sb.priv) {
		return false
	}
	if !h.mem.IsRAM(pa, size) {
		return false
	}
	if _, cached := h.fast.pages[pa&^4095]; cached {
		h.sb.endAfter = true
	}
	h.charge(h.Cfg.Cost.MemAccess)
	if !h.mem.Store(pa, size, value) {
		return false
	}
	if h.resValid && pa&^7 == h.resAddr&^7 {
		h.resValid = false
	}
	if !h.inSlice {
		for _, p := range h.peers {
			p.KillReservation(pa)
		}
	}
	return true
}

// sbCompile translates one decoded instruction into a fused closure, or
// returns nil when the instruction is not block-eligible (CSR ops, AMOs,
// fences, WFI, xRET, ecall/ebreak, and every illegal encoding — all of
// which the interpreter must handle). term marks control transfers, which
// end a block. Closures capture decoded fields by value, never the hart.
func (h *Hart) sbCompile(d *rv.Decoded) (fn sbOp, term bool) {
	rd, rs1, rs2, f3, f7 := d.Rd, d.Rs1, d.Rs2, d.F3, d.F7
	imm := d.Imm
	raw := d.Raw
	cBranch := h.Cfg.Cost.Branch
	cMulDiv := h.Cfg.Cost.MulDiv

	switch d.Op {
	case rv.OpLui:
		return func(h *Hart) (uint64, bool) {
			h.SetReg(rd, imm)
			return h.PC + 4, true
		}, false
	case rv.OpAuipc:
		return func(h *Hart) (uint64, bool) {
			h.SetReg(rd, h.PC+imm)
			return h.PC + 4, true
		}, false
	case rv.OpJal:
		return func(h *Hart) (uint64, bool) {
			t := h.PC + imm
			h.SetReg(rd, h.PC+4)
			h.charge(cBranch)
			return t, true
		}, true
	case rv.OpJalr:
		if f3 != 0 {
			return nil, false
		}
		return func(h *Hart) (uint64, bool) {
			t := h.Reg(rs1) + imm
			h.SetReg(rd, h.PC+4)
			h.charge(cBranch)
			return t &^ 1, true
		}, true
	case rv.OpBranch:
		switch f3 {
		case 0:
			return func(h *Hart) (uint64, bool) {
				if h.Reg(rs1) == h.Reg(rs2) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 1:
			return func(h *Hart) (uint64, bool) {
				if h.Reg(rs1) != h.Reg(rs2) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 4:
			return func(h *Hart) (uint64, bool) {
				if int64(h.Reg(rs1)) < int64(h.Reg(rs2)) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 5:
			return func(h *Hart) (uint64, bool) {
				if int64(h.Reg(rs1)) >= int64(h.Reg(rs2)) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 6:
			return func(h *Hart) (uint64, bool) {
				if h.Reg(rs1) < h.Reg(rs2) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 7:
			return func(h *Hart) (uint64, bool) {
				if h.Reg(rs1) >= h.Reg(rs2) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		}
		return nil, false
	case rv.OpLoad:
		var size int
		var signed bool
		switch f3 {
		case 0:
			size, signed = 1, true
		case 1:
			size, signed = 2, true
		case 2:
			size, signed = 4, true
		case 3:
			size, signed = 8, false
		case 4:
			size, signed = 1, false
		case 5:
			size, signed = 2, false
		case 6:
			size, signed = 4, false
		default:
			return nil, false
		}
		if signed {
			bits := uint(8 * size)
			return func(h *Hart) (uint64, bool) {
				v, ok := h.sbLoad(h.Reg(rs1)+imm, size)
				if !ok {
					return 0, false
				}
				h.SetReg(rd, rv.SignExtend(v, bits))
				return h.PC + 4, true
			}, false
		}
		return func(h *Hart) (uint64, bool) {
			v, ok := h.sbLoad(h.Reg(rs1)+imm, size)
			if !ok {
				return 0, false
			}
			h.SetReg(rd, v)
			return h.PC + 4, true
		}, false
	case rv.OpStore:
		if f3 > 3 {
			return nil, false
		}
		size := 1 << f3
		return func(h *Hart) (uint64, bool) {
			if !h.sbStore(h.Reg(rs1)+imm, size, h.Reg(rs2)) {
				return 0, false
			}
			return h.PC + 4, true
		}, false
	case rv.OpImm:
		switch f3 {
		case 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)+imm)
				return h.PC + 4, true
			}, false
		case 1:
			if raw>>26 != 0 {
				return nil, false
			}
			sh := imm & 63
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)<<sh)
				return h.PC + 4, true
			}, false
		case 2:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, boolTo64(int64(h.Reg(rs1)) < int64(imm)))
				return h.PC + 4, true
			}, false
		case 3:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, boolTo64(h.Reg(rs1) < imm))
				return h.PC + 4, true
			}, false
		case 4:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)^imm)
				return h.PC + 4, true
			}, false
		case 5:
			sh := imm & 63
			switch raw >> 26 {
			case 0:
				return func(h *Hart) (uint64, bool) {
					h.SetReg(rd, h.Reg(rs1)>>sh)
					return h.PC + 4, true
				}, false
			case 0x10:
				return func(h *Hart) (uint64, bool) {
					h.SetReg(rd, uint64(int64(h.Reg(rs1))>>sh))
					return h.PC + 4, true
				}, false
			}
			return nil, false
		case 6:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)|imm)
				return h.PC + 4, true
			}, false
		case 7:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)&imm)
				return h.PC + 4, true
			}, false
		}
		return nil, false
	case rv.OpImm32:
		switch f3 {
		case 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1)+imm)), 32))
				return h.PC + 4, true
			}, false
		case 1:
			if f7 != 0 {
				return nil, false
			}
			sh := imm & 31
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))<<sh), 32))
				return h.PC + 4, true
			}, false
		case 5:
			sh := imm & 31
			switch f7 {
			case 0:
				return func(h *Hart) (uint64, bool) {
					h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))>>sh), 32))
					return h.PC + 4, true
				}, false
			case 0x20:
				return func(h *Hart) (uint64, bool) {
					h.SetReg(rd, rv.SignExtend(uint64(int32(h.Reg(rs1))>>sh), 32))
					return h.PC + 4, true
				}, false
			}
			return nil, false
		}
		return nil, false
	case rv.OpReg:
		if f7 == 0x01 { // M extension (mulDiv64 is total for all f3)
			return func(h *Hart) (uint64, bool) {
				h.charge(cMulDiv)
				h.SetReg(rd, mulDiv64(f3, h.Reg(rs1), h.Reg(rs2)))
				return h.PC + 4, true
			}, false
		}
		switch {
		case f3 == 0 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)+h.Reg(rs2))
				return h.PC + 4, true
			}, false
		case f3 == 0 && f7 == 0x20:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)-h.Reg(rs2))
				return h.PC + 4, true
			}, false
		case f3 == 1 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)<<(h.Reg(rs2)&63))
				return h.PC + 4, true
			}, false
		case f3 == 2 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, boolTo64(int64(h.Reg(rs1)) < int64(h.Reg(rs2))))
				return h.PC + 4, true
			}, false
		case f3 == 3 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, boolTo64(h.Reg(rs1) < h.Reg(rs2)))
				return h.PC + 4, true
			}, false
		case f3 == 4 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)^h.Reg(rs2))
				return h.PC + 4, true
			}, false
		case f3 == 5 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)>>(h.Reg(rs2)&63))
				return h.PC + 4, true
			}, false
		case f3 == 5 && f7 == 0x20:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, uint64(int64(h.Reg(rs1))>>(h.Reg(rs2)&63)))
				return h.PC + 4, true
			}, false
		case f3 == 6 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)|h.Reg(rs2))
				return h.PC + 4, true
			}, false
		case f3 == 7 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)&h.Reg(rs2))
				return h.PC + 4, true
			}, false
		}
		return nil, false
	case rv.OpReg32:
		if f7 == 0x01 { // M extension word forms; mulDiv32 is total for valid f3
			switch f3 {
			case 0, 4, 5, 6, 7:
			default:
				return nil, false
			}
			return func(h *Hart) (uint64, bool) {
				h.charge(cMulDiv)
				v, _ := h.mulDiv32(f3, h.Reg(rs1), h.Reg(rs2), raw)
				h.SetReg(rd, v)
				return h.PC + 4, true
			}, false
		}
		switch {
		case f3 == 0 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))+uint32(h.Reg(rs2))), 32))
				return h.PC + 4, true
			}, false
		case f3 == 0 && f7 == 0x20:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))-uint32(h.Reg(rs2))), 32))
				return h.PC + 4, true
			}, false
		case f3 == 1 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))<<(h.Reg(rs2)&31)), 32))
				return h.PC + 4, true
			}, false
		case f3 == 5 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))>>(h.Reg(rs2)&31)), 32))
				return h.PC + 4, true
			}, false
		case f3 == 5 && f7 == 0x20:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(int32(h.Reg(rs1))>>(h.Reg(rs2)&31)), 32))
				return h.PC + 4, true
			}, false
		}
		return nil, false
	}
	return nil, false
}
