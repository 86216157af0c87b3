package hart

// Host-side acceleration caches. Everything in this file trades host time
// only: the simulated machine's architectural state and cycle accounting
// are bit-identical with the fast paths on or off (the equivalence gate in
// internal/verif/fuzz runs the two configurations side by side and fails
// on any divergence). See DESIGN.md, "Host fast paths vs. the
// simulated cycle model".

import (
	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/rv"
)

// decPage caches the predecoded form of one 4KiB physical page of
// instruction memory (1024 potential 32-bit slots, filled on first fetch).
// A slot is valid iff its generation tag equals the page's current
// generation, so invalidation is an O(1) counter bump that keeps the 40KiB
// allocation alive — essential when code and data share a page (e.g. a
// firmware whose stack sits next to its text), where every store would
// otherwise free and reallocate the page.
type decPage struct {
	gen   uint32 // current generation; starts at 1 so zeroed tags are invalid
	armed bool   // bus write-watch currently armed for this page
	tags  [1024]uint32
	ins   [1024]rv.Decoded

	// Superblock tier state (superblock.go), lazily allocated: hot counts
	// dispatches per entry slot until translation; blocks holds the
	// translated superblocks by entry slot (a direct array, not a map —
	// the lookup is on the per-dispatch hot path), each guarded by the
	// gen it was translated under.
	hot    *[1024]uint8
	blocks *[1024]*sblock
}

// invalidate drops every slot and remembers that the consumed write-watch
// must be re-armed before the page is trusted again.
func (dp *decPage) invalidate() {
	dp.gen++
	if dp.gen == 0 { // tag wrap: make all stale tags unambiguously invalid
		clear(dp.tags[:])
		// Superblocks are gen-guarded too: after a wrap a stale block's
		// recorded gen could collide with a future value, so drop them all.
		dp.blocks = nil
		dp.gen = 1
	}
	dp.armed = false
}

// fastState bundles the per-hart host caches.
type fastState struct {
	on bool

	// tlb caches successful leaf translations (see mmu.TLB for the
	// validity-by-comparison scheme).
	tlb mmu.TLB

	// pages maps physical page base -> predecoded instructions, with a
	// 1-entry lookup cache in front (straight-line code stays on one
	// page). Pages are cached only when the bus can watch them (RAM);
	// any write into a cached page — this hart, another hart, DMA, the
	// fault injector — drops the page via InvalidatePhysPage.
	pages        map[uint64]*decPage
	lastPageBase uint64
	lastPage     *decPage

	// xPage|1, xEpoch and xMode record a page fetch verdict: the PMP
	// allows execution anywhere on physical page xPage in mode xMode while
	// the PMP content id is xEpoch (pmp.File.PageAllows), so fetches there
	// skip the per-fetch check. xPage is 0 when no verdict is held; the
	// low bit keeps a verdict for page 0 distinct from that.
	xPage  uint64
	xEpoch uint64
	xMode  rv.Mode

	// ptePages is the set of physical pages some cached TLB entry read
	// its PTEs from. A write to any of them flushes the whole TLB: page
	// tables change rarely, so precision is not worth per-entry tracking.
	ptePages map[uint64]struct{}

	// scratch holds the decode of fetches that cannot be cached (MMIO).
	scratch rv.Decoded

	// fetchDP/fetchSlot/fetchPA record where fetchFast found the current
	// instruction, so the superblock dispatcher (sbTry) can locate the
	// block keyed at that physical slot. fetchDP is nil for MMIO fetches.
	fetchDP   *decPage
	fetchSlot int
	fetchPA   uint64
}

// excScratch is a small ring of Exc values so the hot fault paths return
// pointers without heap allocation. Callers treat a returned *Exc as
// transient — consumed before the next handful of exceptions — which every
// consumer in this module does (checked by review: core, bench, fuzz all
// read Cause/Tval immediately).
type excScratch struct {
	buf [16]Exc
	i   int
}

// exc fills the next ring slot and returns it.
func (h *Hart) exc(cause, tval uint64) *Exc {
	e := &h.excs.buf[h.excs.i%len(h.excs.buf)]
	h.excs.i++
	e.Cause, e.Tval, e.Gpa = cause, tval, 0
	return e
}

// SetFastPath switches the host acceleration caches on or off, flushing
// them in both directions so stale state can never be consulted later.
func (h *Hart) SetFastPath(on bool) {
	h.fast.on = on
	h.CSR.PMP.SetFast(on)
	h.flushDecode()
	h.flushTLB()
}

// InvalidatePhysPage implements mem.PageWatcher: a watched page was
// written, so drop any predecoded instructions on it and, if a cached
// translation walked through it, the TLB.
func (h *Hart) InvalidatePhysPage(page uint64) {
	if dp, ok := h.fast.pages[page]; ok {
		dp.invalidate()
		// Drop the 1-entry lookup cache too when it fronts this page, so
		// no later fetch can trust a stale pointer without going through
		// the map (and the re-arm/tag checks) again.
		if h.fast.lastPage == dp {
			h.fast.lastPage, h.fast.lastPageBase = nil, 0
		}
	}
	if _, ok := h.fast.ptePages[page]; ok {
		h.fast.tlb.Flush()
		clear(h.fast.ptePages)
	}
}

// flushDecode drops every predecoded page (fence.i, snapshot restore,
// fast-path toggle). The bus watch bits stay armed; a later notification
// for an already-dropped page is a no-op.
func (h *Hart) flushDecode() {
	clear(h.fast.pages)
	h.fast.lastPage, h.fast.lastPageBase = nil, 0
	h.fast.fetchDP = nil
	h.fast.xPage = 0
}

// flushTLB drops every cached translation (sfence.vma, satp write,
// snapshot restore, fast-path toggle).
func (h *Hart) flushTLB() {
	h.fast.tlb.Flush()
	clear(h.fast.ptePages)
}

// tlbFill caches a successful translation, first arming a write watch on
// every page the walk read PTEs from so software page-table edits
// invalidate it. PTE pages outside RAM cannot be watched; such walks stay
// uncached. Arming happens after the walk so the walker's own A/D-bit
// store does not immediately kill the entry.
func (h *Hart) tlbFill(acc mem.AccessType, vpn uint64, k mmu.Key, res *mmu.Result) {
	for i := 0; i < res.WalkLen; i++ {
		p := res.Walk[i] &^ 4095
		if !h.mem.WatchPage(p) {
			return
		}
		h.fast.ptePages[p] = struct{}{}
	}
	h.fast.tlb.InsertK(acc, vpn, k, res.PA&^4095)
}

// tlbKey bundles the current translation-validity state for priv. With
// virt set the key carries the guest context (vsatp, hgatp, vsstatus
// SUM/MXR, V) so two-stage fills can never satisfy host-context lookups
// or vice versa — hgatp rewrites and V transitions miss by comparison.
func (h *Hart) tlbKey(priv rv.Mode, virt bool) mmu.Key {
	if virt {
		return mmu.Key{
			Satp:  h.CSR.Vsatp,
			Hgatp: h.CSR.Hgatp,
			Epoch: h.CSR.PMP.Epoch(),
			Priv:  priv,
			SUM:   rv.Bit(h.CSR.Vsstatus, rv.MstatusSUM) != 0,
			MXR:   rv.Bit(h.CSR.Vsstatus, rv.MstatusMXR) != 0,
			V:     true,
		}
	}
	return mmu.Key{
		Satp:  h.CSR.Satp,
		Epoch: h.CSR.PMP.Epoch(),
		Priv:  priv,
		SUM:   rv.Bit(h.CSR.Mstatus, rv.MstatusSUM) != 0,
		MXR:   rv.Bit(h.CSR.Mstatus, rv.MstatusMXR) != 0,
	}
}

// translationActive reports whether any translation stage applies for a
// (priv, virt) access context.
func (h *Hart) translationActive(priv rv.Mode, virt bool) bool {
	if priv == rv.ModeM {
		return false
	}
	if virt {
		return rv.SatpMode(h.CSR.Vsatp) == rv.SatpModeSv39 ||
			rv.SatpMode(h.CSR.Hgatp) == rv.HgatpModeSv39x4
	}
	return rv.SatpMode(h.CSR.Satp) == rv.SatpModeSv39
}

// translate maps a virtual address for an access at the given effective
// privilege and virtualization mode, using the TLB when the fast path is
// on. Architecturally identical to calling mmu.Translate directly: the TLB
// only ever caches what a full walk produced, keyed on all state the walk
// depends on, and walks charge no simulated cycles, so hits change host
// time only.
func (h *Hart) translate(va uint64, acc mem.AccessType, priv rv.Mode, virt bool) (uint64, *Exc) {
	if !h.translationActive(priv, virt) {
		return va, nil
	}
	if !h.fast.on {
		h.Perf.PageWalks++
		res := mmu.Translate(h.mmuEnv(priv, virt), va, acc)
		if !res.OK {
			if h.inSlice && h.mem.TakeBlocked() {
				return 0, errParked
			}
			ei := h.exc(res.Cause, va)
			ei.Gpa = res.GPA
			return 0, ei
		}
		return res.PA, nil
	}
	vpn := va >> 12
	k := h.tlbKey(priv, virt)
	if paPage, ok := h.fast.tlb.LookupK(acc, vpn, k); ok {
		h.Perf.TLBHits++
		return paPage | va&4095, nil
	}
	h.Perf.TLBMisses++
	h.Perf.PageWalks++
	res := mmu.Translate(h.mmuEnv(priv, virt), va, acc)
	if !res.OK {
		if h.inSlice && h.mem.TakeBlocked() {
			return 0, errParked
		}
		ei := h.exc(res.Cause, va)
		ei.Gpa = res.GPA
		return 0, ei
	}
	h.tlbFill(acc, vpn, k, &res)
	return res.PA, nil
}

// fetchFast returns the predecoded instruction at PC. It performs exactly
// the architectural work of fetch() — alignment check, translation, PMP,
// bus read — except that translation may hit the TLB, the PMP check may be
// answered by the page verdict, and the decode may hit the per-page cache.
func (h *Hart) fetchFast() (*rv.Decoded, *Exc) {
	if h.PC&3 != 0 {
		return nil, h.exc(rv.ExcInstrAddrMisaligned, h.PC)
	}
	// Fetch always uses the true privilege mode; MPRV affects data only.
	pa, ei := h.translate(h.PC, mem.Exec, h.Mode, h.V)
	if ei != nil {
		return nil, ei
	}
	pageBase := pa &^ 4095
	if h.fast.xPage == pageBase|1 && h.fast.xMode == h.Mode &&
		h.fast.xEpoch == h.CSR.PMP.Epoch() {
		h.Perf.PMPPageHits++
	} else if h.CSR.PMP.PageAllows(pageBase, mem.Exec, h.Mode) {
		h.fast.xPage, h.fast.xMode, h.fast.xEpoch = pageBase|1, h.Mode, h.CSR.PMP.Epoch()
	} else if !h.CSR.PMP.Check(pa, 4, mem.Exec, h.Mode) {
		return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
	}
	dp := h.fast.lastPage
	if dp == nil || h.fast.lastPageBase != pageBase {
		dp = h.fast.pages[pageBase]
		if dp == nil {
			if !h.mem.WatchPage(pageBase) {
				// Not RAM: execute-in-place from a device; never cache.
				h.Perf.DecodeMisses++
				v, ok := h.mem.Load(pa, 4)
				if !ok {
					if h.inSlice && h.mem.TakeBlocked() {
						return nil, errParked
					}
					return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
				}
				h.fast.scratch = rv.Decode(uint32(v))
				h.fast.fetchDP = nil // never translated into superblocks
				return &h.fast.scratch, nil
			}
			dp = &decPage{gen: 1}
			h.fast.pages[pageBase] = dp
		}
		h.fast.lastPage, h.fast.lastPageBase = dp, pageBase
	}
	if !dp.armed {
		// First use, or a write consumed the watch: re-arm before trusting
		// any slot filled from here on. Always succeeds — the page was RAM
		// when it entered the cache and regions never go away.
		h.mem.WatchPage(pageBase)
		dp.armed = true
	}
	i := (pa & 4095) >> 2
	h.fast.fetchDP, h.fast.fetchSlot, h.fast.fetchPA = dp, int(i), pa
	if dp.tags[i] != dp.gen {
		h.Perf.DecodeMisses++
		v, ok := h.mem.Load(pa, 4)
		if !ok {
			return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
		}
		dp.ins[i] = rv.Decode(uint32(v))
		dp.tags[i] = dp.gen
	} else {
		h.Perf.DecodeHits++
	}
	return &dp.ins[i], nil
}
