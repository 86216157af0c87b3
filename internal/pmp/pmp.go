// Package pmp implements RISC-V Physical Memory Protection: decoding of
// pmpcfg/pmpaddr CSRs, address matching (TOR, NA4, NAPOT), lock semantics,
// WARL legalization of reserved permission combinations, and the access
// check used on every load, store, and fetch of the simulated machine.
//
// The same File type backs the machine's physical PMP (internal/hart) and
// Miralis's virtual PMP registers (internal/core); the reference model
// (internal/refmodel) implements its own independent check used as the
// verification oracle for "faithful execution".
package pmp

import (
	"fmt"
	"math/bits"

	"govfm/internal/mem"
	"govfm/internal/rv"
)

// MaxEntries is the architectural maximum number of PMP entries.
const MaxEntries = 64

// pmpcfg bit layout.
const (
	CfgR = 1 << 0
	CfgW = 1 << 1
	CfgX = 1 << 2
	CfgL = 1 << 7

	// A field (bits 4:3) values.
	AOff   = 0
	ATor   = 1
	ANa4   = 2
	ANapot = 3
)

// AMode extracts the address-matching mode from a cfg byte.
func AMode(cfg byte) byte { return cfg >> 3 & 3 }

// WithAMode returns cfg with the address-matching mode replaced.
func WithAMode(cfg, a byte) byte { return cfg&^0x18 | a<<3&0x18 }

// LegalizeCfg applies the WARL rules for a pmpcfg byte: bits 5 and 6 are
// hardwired to zero, and the reserved combination W=1,R=0 is legalized by
// clearing W (the combination is reserved unless Smepmp's rule-locking is
// active, which this machine does not implement). This is exactly the class
// of legalization in which the paper reports finding a bug (§6.5).
func LegalizeCfg(v byte) byte {
	v &^= 0x60 // reserved bits
	if v&CfgW != 0 && v&CfgR == 0 {
		v &^= CfgW
	}
	return v
}

// File is a set of PMP entries. The zero value has zero implemented
// entries, which performs no checking.
type File struct {
	n    int
	cfg  [MaxEntries]byte
	addr [MaxEntries]uint64

	// Tables derived from the entries for the access-check hot path; valid
	// whenever dirty is false. All state lives in fixed arrays so File
	// copies (snapshot clone) stay self-contained.
	decoded
	lastSeg int // hint: segment that resolved the previous check

	// Content identity. id names the current entries: within one file's
	// lifetime two equal ids mean equal cfg/addr contents, and differing
	// contents get differing ids. External caches that embed a translation
	// or permission decision derived from this file (the hart's software
	// TLB, superblock guards, the monitor's wall memo) tag their entries
	// with the id at fill time and treat any mismatch as a miss. A world
	// switch that reprograms the file back to a view it has seen before
	// therefore gets that view's id, decoded tables and cached decisions
	// back, while any real change is an O(1) global invalidation with no
	// explicit hook.
	//
	// A write only sets dirty; the next Check or Epoch identifies the
	// entries against views, the few most recently seen contents, and
	// either restores the matching view or issues a fresh id above every
	// id issued before (issued is the high-water mark).
	dirty  bool
	id     uint64
	issued uint64
	views  *viewCache // allocated on first identification

	fast bool

	// Perf counts access checks. Plain counters: Check runs on every
	// simulated access, single-goroutine per file, and metrics snapshots
	// read them between steps. Never consulted by the check itself.
	Perf struct {
		Checks   uint64 // total Check calls
		FastHits uint64 // resolved by the flattened-range lookup
	}
}

// decoded is everything Check derives from the entries.
//
// Decoded regions: entry i covers the inclusive range [regLo[i],
// regLast[i]] when regOK[i].
//
// Flattened ranges: the address space partitioned into segments on which
// the "lowest-numbered matching entry" function is constant. segBase[k]
// is the first address of segment k (segment k ends where segment k+1
// begins, the last one at the top of the address space); segOwner[k] is
// the lowest-numbered entry covering that segment, or -1 when none does.
// An access's verdict is decided by the minimum owner over the segments
// it spans (see checkFast), replacing the linear TOR/NAPOT scan with a
// binary search.
type decoded struct {
	regLo    [MaxEntries]uint64
	regLast  [MaxEntries]uint64
	regOK    [MaxEntries]bool
	nSeg     int
	segBase  [2*MaxEntries + 2]uint64
	segOwner [2*MaxEntries + 2]int8
}

// numViews bounds the view cache. A monitored hart cycles through at most
// three physical PMP contents in steady state: the firmware world, the OS
// world, and the firmware world's MPRV-emulation window.
const numViews = 3

// view is one interned content: the entries compared on lookup (in full;
// equal hashes would not be enough), the id issued for them, and their
// decoded tables.
type view struct {
	used uint64 // recency stamp; 0 marks an empty slot
	id   uint64
	cfg  [MaxEntries]byte
	addr [MaxEntries]uint64
	decoded
}

type viewCache struct {
	clock uint64
	v     [numViews]view
}

// NewFile returns a PMP file with n implemented entries (0..64). Its
// entries are all zero, named by id 0.
func NewFile(n int) *File {
	if n < 0 || n > MaxEntries {
		panic(fmt.Sprintf("pmp: invalid entry count %d", n))
	}
	f := &File{n: n}
	// The decoded tables of all-OFF entries: one segment, owned by none.
	f.nSeg, f.segOwner[0] = 1, -1
	return f
}

// markDirty records a register write: the id and the decoded tables go
// stale until the next identify.
func (f *File) markDirty() { f.dirty = true }

// Epoch returns the content id of the entries. Within one file's lifetime
// it is equal for equal contents and differs for differing ones, as far
// back as the view cache remembers: a return to a view evicted from it
// gets a fresh id, which costs external caches only a refill.
func (f *File) Epoch() uint64 {
	if f.dirty {
		f.identify()
	}
	return f.id
}

// identify names the current entries: a view-cache hit restores that
// view's id and decoded tables, a miss issues a fresh id, rebuilds the
// tables and interns them in place of the least recently used view.
func (f *File) identify() {
	f.dirty = false
	c := f.views
	if c == nil {
		c = new(viewCache)
		f.views = c
	}
	c.clock++
	victim := &c.v[0]
	for i := range c.v {
		v := &c.v[i]
		if v.used != 0 && v.cfg == f.cfg && v.addr == f.addr {
			v.used = c.clock
			f.id = v.id
			f.decoded = v.decoded
			return
		}
		if v.used < victim.used {
			victim = v
		}
	}
	f.issued++
	f.id = f.issued
	f.refreshRegions()
	f.rebuildSegs()
	*victim = view{used: c.clock, id: f.id, cfg: f.cfg, addr: f.addr, decoded: f.decoded}
}

// CloneSnapshot returns a deep copy with the content identity cleared:
// id and high-water mark zero, no view cache. Identity is host-cache
// bookkeeping, not architectural state: two snapshots of the same
// architectural state must compare equal no matter when they were taken,
// and Restore re-derives a monotonic id on the live file (see
// AdvanceEpoch) rather than trusting a snapshot-time value.
func (f *File) CloneSnapshot() *File {
	c := *f
	c.id, c.issued, c.views = 0, 0, nil
	return &c
}

// AdvanceEpoch drops the view cache and raises the id so that the current
// id and every id issued from now on are at least e, and above every id
// issued before. Machine reset and snapshot restore replace or rewind a
// hart's PMP file; passing the old file's MaxEpoch()+1 keeps ids unique
// per hart, so an external cache entry tagged with an id can never be
// re-validated by a different (reset or restored) file that happens to
// reuse the number. Raising the id never invalidates anything incorrectly
// — a mismatch is always just a refill.
func (f *File) AdvanceEpoch(e uint64) {
	f.views = nil
	if f.dirty {
		// The entries have no id yet; the next identify issues one.
		if e > f.issued+1 {
			f.issued = e - 1
		}
		return
	}
	if f.id < e {
		f.id = max(e, f.issued+1)
		f.issued = f.id
	}
}

// MaxEpoch returns the highest id the file has issued: every id it has
// named its contents by so far is at most this value.
func (f *File) MaxEpoch() uint64 { return f.issued }

// SetFast selects the flattened-range lookup (true) or the architectural
// linear scan (false) for Check. Both produce identical verdicts — the
// equivalence gate (fuzzdiff -equiv) runs them against each other — so this
// only trades host time.
func (f *File) SetFast(on bool) { f.fast = on }

// NumEntries returns the number of implemented entries.
func (f *File) NumEntries() int { return f.n }

// Cfg returns the cfg byte of entry i (zero for unimplemented entries).
func (f *File) Cfg(i int) byte {
	if i < 0 || i >= f.n {
		return 0
	}
	return f.cfg[i]
}

// Addr returns the pmpaddr value of entry i (zero for unimplemented).
func (f *File) Addr(i int) uint64 {
	if i < 0 || i >= f.n {
		return 0
	}
	return f.addr[i]
}

// Locked reports whether entry i is locked (L bit set).
func (f *File) Locked(i int) bool { return f.Cfg(i)&CfgL != 0 }

// SetCfg writes the cfg byte of entry i, honouring lock bits and WARL
// legalization. Writes to locked or unimplemented entries are ignored, as
// on hardware.
func (f *File) SetCfg(i int, v byte) {
	if i < 0 || i >= f.n || f.Locked(i) {
		return
	}
	f.cfg[i] = LegalizeCfg(v)
	f.markDirty()
}

// ForceCfg writes entry i's cfg ignoring locks; this models machine reset
// and is used by the monitor, never by guest-visible CSR writes.
func (f *File) ForceCfg(i int, v byte) {
	if i < 0 || i >= f.n {
		return
	}
	f.cfg[i] = LegalizeCfg(v)
	f.markDirty()
}

// SetAddr writes pmpaddr[i]. The write is ignored if entry i is locked, or
// if entry i+1 is locked in TOR mode (which freezes its base address).
// pmpaddr registers hold bits 55:2 of the address; higher bits are WARL
// zero.
func (f *File) SetAddr(i int, v uint64) {
	if i < 0 || i >= f.n || f.Locked(i) {
		return
	}
	if i+1 < f.n && f.Locked(i+1) && AMode(f.cfg[i+1]) == ATor {
		return
	}
	f.addr[i] = v & rv.Mask(54)
	f.markDirty()
}

// ForceAddr writes pmpaddr[i] ignoring locks (monitor/reset use only).
func (f *File) ForceAddr(i int, v uint64) {
	if i < 0 || i >= f.n {
		return
	}
	f.addr[i] = v & rv.Mask(54)
	f.markDirty()
}

// CfgReg reads the packed pmpcfg register (reg must be even on RV64):
// pmpcfg0 packs entries 0-7, pmpcfg2 packs 8-15, etc.
func (f *File) CfgReg(reg int) uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(f.Cfg(reg*4+k)) << (8 * k)
	}
	return v
}

// SetCfgReg writes the packed pmpcfg register, byte by byte, applying
// per-entry lock and WARL rules.
func (f *File) SetCfgReg(reg int, v uint64) {
	for k := 0; k < 8; k++ {
		f.SetCfg(reg*4+k, byte(v>>(8*k)))
	}
}

// Region decodes entry i into the inclusive physical range [lo, last].
// ok is false when the entry is OFF or decodes to an empty range. The
// inclusive representation lets an all-ones NAPOT entry cover the very
// top of the address space without overflow.
func (f *File) Region(i int) (lo, last uint64, ok bool) {
	return decodeRegion(f.Cfg(i), f.Addr(i), f.prevAddr(i))
}

func (f *File) prevAddr(i int) uint64 {
	if i == 0 {
		return 0 // TOR base for entry 0 is hardwired to address 0
	}
	return f.Addr(i - 1)
}

func decodeRegion(cfg byte, addr, prevAddr uint64) (lo, last uint64, ok bool) {
	switch AMode(cfg) {
	case AOff:
		return 0, 0, false
	case ATor:
		lo, top := prevAddr<<2, addr<<2
		if lo >= top {
			return 0, 0, false
		}
		return lo, top - 1, true
	case ANa4:
		lo = addr << 2
		return lo, lo + 3, true
	case ANapot:
		ones := bits.TrailingZeros64(^addr)
		if ones >= 54 {
			// All-ones pmpaddr covers the whole address space.
			return 0, ^uint64(0), true
		}
		size := uint64(8) << uint(ones)
		lo = (addr &^ rv.Mask(uint(ones))) << 2
		return lo, lo + size - 1, true
	}
	return 0, 0, false
}

// MatchResult describes how an access relates to a single PMP entry.
type MatchResult int

const (
	NoMatch      MatchResult = iota // no byte of the access matches
	FullMatch                       // every byte matches
	PartialMatch                    // some but not all bytes match — always faults
)

// refreshRegions rebuilds the decoded regions.
func (f *File) refreshRegions() {
	for i := 0; i < f.n; i++ {
		f.regLo[i], f.regLast[i], f.regOK[i] = f.Region(i)
	}
}

// matchEntry classifies an access of size bytes at addr against entry i.
// The decoded tables must be current (Check identifies first).
func (f *File) matchEntry(i int, addr uint64, size int) MatchResult {
	lo, last, ok := f.regLo[i], f.regLast[i], f.regOK[i]
	if !ok {
		return NoMatch
	}
	aLast := addr + uint64(size) - 1
	if aLast < addr {
		// The access itself wraps the address space: nothing sane matches
		// fully, so any overlap is a faulting partial match.
		if addr > last {
			return NoMatch
		}
		return PartialMatch
	}
	if aLast < lo || addr > last {
		return NoMatch
	}
	if addr >= lo && aLast <= last {
		return FullMatch
	}
	return PartialMatch
}

// Check performs the architectural PMP check for an access of size bytes at
// physical address addr, performed in the given privilege mode. It returns
// true when the access is allowed.
//
// Rules (privileged spec §3.7):
//   - entries are searched in priority order; the lowest-numbered matching
//     entry determines the result;
//   - a partial match always fails;
//   - a matching unlocked entry does not constrain M-mode;
//   - a matching locked entry constrains all modes, including M;
//   - if no entry matches: M-mode succeeds, S/U fail when at least one
//     entry is implemented.
func (f *File) Check(addr uint64, size int, acc mem.AccessType, mode rv.Mode) bool {
	f.Perf.Checks++
	if f.dirty {
		f.identify()
	}
	if f.fast {
		if allowed, ok := f.checkFast(addr, size, acc, mode); ok {
			f.Perf.FastHits++
			return allowed
		}
	}
	return f.checkScan(addr, size, acc, mode)
}

// checkScan is the architectural priority scan over all entries; it is the
// reference Check implementation and the fallback for the rare access
// shapes checkFast declines (wrap-around).
func (f *File) checkScan(addr uint64, size int, acc mem.AccessType, mode rv.Mode) bool {
	for i := 0; i < f.n; i++ {
		switch f.matchEntry(i, addr, size) {
		case NoMatch:
			continue
		case PartialMatch:
			return false
		case FullMatch:
			return permits(f.cfg[i], acc, mode)
		}
	}
	if mode == rv.ModeM {
		return true
	}
	return f.n == 0
}

// rebuildSegs flattens the decoded regions into the sorted segment table.
// Boundary points are each region's first address and the address just past
// its last (omitted when the region reaches the top of the address space),
// plus 0; the owner of each resulting segment is the lowest-numbered entry
// covering it. With n ≤ 64 entries the point set is tiny, so a simple
// insertion sort avoids any allocation. The regions must be current.
func (f *File) rebuildSegs() {
	var pts [2*MaxEntries + 2]uint64
	np := 1 // pts[0] = 0
	for i := 0; i < f.n; i++ {
		if !f.regOK[i] {
			continue
		}
		pts[np] = f.regLo[i]
		np++
		if f.regLast[i] != ^uint64(0) {
			pts[np] = f.regLast[i] + 1
			np++
		}
	}
	for i := 1; i < np; i++ {
		v := pts[i]
		j := i - 1
		for j >= 0 && pts[j] > v {
			pts[j+1] = pts[j]
			j--
		}
		pts[j+1] = v
	}
	f.nSeg = 0
	for k := 0; k < np; k++ {
		if k > 0 && pts[k] == pts[k-1] {
			continue
		}
		s := pts[k]
		owner := int8(-1)
		for i := 0; i < f.n; i++ {
			if f.regOK[i] && f.regLo[i] <= s && s <= f.regLast[i] {
				owner = int8(i)
				break
			}
		}
		f.segBase[f.nSeg] = s
		f.segOwner[f.nSeg] = owner
		f.nSeg++
	}
	f.lastSeg = 0
}

// checkFast resolves the access via the flattened segment table. It returns
// ok=false when it cannot decide (the access wraps the address space), in
// which case the caller falls back to the architectural scan.
//
// The matching entry, per the spec, is the lowest-numbered entry covering
// any byte of the access. Since each segment's owner is the lowest-numbered
// entry covering that segment, that matching entry is exactly the minimum
// owner over the segments the access spans (min over bytes of min over
// entries = min over the per-segment minima). Partial match is then a
// simple containment test of the access against that entry's region.
func (f *File) checkFast(addr uint64, size int, acc mem.AccessType, mode rv.Mode) (allowed, ok bool) {
	aLast := addr + uint64(size) - 1
	if aLast < addr {
		return false, false // wrap-around: let the scan handle it
	}
	lo := f.segment(addr)
	m := -1 // lowest-numbered entry covering any byte of the access
	for k := lo; k < f.nSeg && f.segBase[k] <= aLast; k++ {
		if o := int(f.segOwner[k]); o >= 0 && (m < 0 || o < m) {
			m = o
		}
	}
	if m < 0 {
		if mode == rv.ModeM {
			return true, true
		}
		return f.n == 0, true
	}
	if addr < f.regLo[m] || aLast > f.regLast[m] {
		return false, true // partial match always faults
	}
	return permits(f.cfg[m], acc, mode), true
}

// segment returns the index of the flattened segment containing addr: the
// greatest k with segBase[k] <= addr (segment 0 starts at 0, so k is
// well-defined). Consecutive lookups overwhelmingly land in the segment
// that answered the last one — the straight-line fetch stream, a
// superblock's data accesses — so a one-entry hint short-circuits the
// binary search.
func (f *File) segment(addr uint64) int {
	lo := f.lastSeg
	if lo < f.nSeg && f.segBase[lo] <= addr &&
		(lo+1 >= f.nSeg || f.segBase[lo+1] > addr) {
		return lo
	}
	hi := f.nSeg - 1
	lo = 0
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.segBase[mid] <= addr {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	f.lastSeg = lo
	return lo
}

// permits applies a fully matching entry's cfg to an access.
func permits(cfg byte, acc mem.AccessType, mode rv.Mode) bool {
	if mode == rv.ModeM && cfg&CfgL == 0 {
		return true
	}
	switch acc {
	case mem.Read:
		return cfg&CfgR != 0
	case mem.Write:
		return cfg&CfgW != 0
	case mem.Exec:
		return cfg&CfgX != 0
	}
	return false
}

// PageAllows reports whether the 4KiB page at base (page-aligned) lies
// wholly inside one flattened segment whose verdict allows acc in mode.
// When it does, Check allows every access of that type and mode that
// lies inside the page, for as long as the content id (Epoch) is
// unchanged: the segment's owner is the lowest-numbered entry matching
// any byte of such an access, and matches all of it, so no partial match
// is possible. A page split by a sub-page region never qualifies. Callers
// may cache a true result keyed on (page, Epoch, mode) in place of
// per-access checks; such hits are not counted in Perf.Checks.
func (f *File) PageAllows(base uint64, acc mem.AccessType, mode rv.Mode) bool {
	if f.dirty {
		f.identify()
	}
	k := f.segment(base)
	if k+1 < f.nSeg && f.segBase[k+1] <= base+4095 {
		return false
	}
	if m := f.segOwner[k]; m >= 0 {
		return permits(f.cfg[m], acc, mode)
	}
	return mode == rv.ModeM || f.n == 0
}

// NAPOTAddr encodes the pmpaddr value covering the naturally aligned
// power-of-two region [base, base+size). It panics if base/size do not
// form a valid NAPOT region of at least 8 bytes.
func NAPOTAddr(base, size uint64) uint64 {
	if size < 8 || size&(size-1) != 0 || base&(size-1) != 0 {
		panic(fmt.Sprintf("pmp: invalid NAPOT region base=%#x size=%#x", base, size))
	}
	return base>>2 | (size/8 - 1)
}

// Snapshot copies all implemented entries into caller-owned slices, in
// entry order. Used for tracing and world-switch bookkeeping.
func (f *File) Snapshot() (cfg []byte, addr []uint64) {
	cfg = make([]byte, f.n)
	addr = make([]uint64, f.n)
	copy(cfg, f.cfg[:f.n])
	copy(addr, f.addr[:f.n])
	return cfg, addr
}

// Clone returns an independent copy of the file: entries (locked ones
// included), lock state, content identity, and every derived cache.
// Monitor forks use this to duplicate virtual PMP and protection files
// onto a child machine. The view cache is deep-copied, not shared: the
// copies issue ids from the same high-water mark once they diverge, so a
// shared cache would let one of them name its contents by an id the other
// issued for different contents.
func (f *File) Clone() *File {
	c := *f
	if f.views != nil {
		v := *f.views
		c.views = &v
	}
	return &c
}

// Reset clears all entries, including locked ones (power-on reset), and
// drops the view cache.
func (f *File) Reset() {
	f.cfg = [MaxEntries]byte{}
	f.addr = [MaxEntries]uint64{}
	f.views = nil
	f.markDirty()
}
