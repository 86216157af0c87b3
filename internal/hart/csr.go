package hart

import (
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// CSRFile holds the hart's control and status registers. WARL legalization
// is applied on writes, so stored values are always architecturally legal.
// mip is split into a software-writable part (mipSW) and hardware lines
// (hwLines, driven by the CLINT/PLIC each step); reads compose the two.
type CSRFile struct {
	cfg *Config

	Mstatus       uint64
	Misa          uint64
	Medeleg       uint64
	Mideleg       uint64
	Mie           uint64
	Mtvec         uint64
	Mcounteren    uint64
	Menvcfg       uint64
	Mscratch      uint64
	Mepc          uint64
	Mcause        uint64
	Mtval         uint64
	Mtinst        uint64
	Mtval2        uint64
	Mseccfg       uint64
	Mcountinhibit uint64

	Stvec      uint64
	Scounteren uint64
	Senvcfg    uint64
	Sscratch   uint64
	Sepc       uint64
	Scause     uint64
	Stval      uint64
	Satp       uint64
	Stimecmp   uint64

	// Hypervisor-extension state (HasH profiles). Hip, Vsie, Vsip, Hgeie,
	// and Henvcfg are raw storage only: their architectural values are
	// views computed from hvip/hie/hideleg (see Hip/Vsie/Vsip), and the
	// fields stay so world-switch save/restore and the verif field walkers
	// keep a stable layout.
	Hstatus, Hedeleg, Hideleg, Hie, Hcounteren, Hgeie uint64
	Htval, Hip, Hvip, Htinst, Hgatp, Henvcfg          uint64
	Vsstatus, Vsie, Vstvec, Vsscratch                 uint64
	Vsepc, Vscause, Vstval, Vsip, Vsatp               uint64

	Custom map[uint16]uint64

	mipSW   uint64 // software-writable mip bits (SSIP, STIP, SEIP)
	hwLines uint64 // interrupt lines from CLINT/PLIC (MSIP, MTIP, MEIP, SEIP)

	PMP *pmp.File
}

// Writable-bit masks.
const (
	mstatusWritable = uint64(1)<<rv.MstatusSIE | 1<<rv.MstatusMIE |
		1<<rv.MstatusSPIE | 1<<rv.MstatusMPIE | 1<<rv.MstatusSPP |
		3<<rv.MstatusMPPLo | 1<<rv.MstatusMPRV | 1<<rv.MstatusSUM |
		1<<rv.MstatusMXR | 1<<rv.MstatusTVM | 1<<rv.MstatusTW |
		1<<rv.MstatusTSR
	medelegMask = uint64(0xB3FF) // all exceptions except 10, 11, 14
	midelegMask = rv.SIntMask
	mieMask     = rv.MIntMask | rv.SIntMask
	mipSWMask   = rv.SIntMask // SSIP, STIP, SEIP writable by M-mode
	uxlFixed    = uint64(2)<<rv.MstatusUXLLo | 2<<rv.MstatusSXLLo
)

// Hypervisor-extension writable-bit masks (HasH profiles).
const (
	// mstatus gains MPV and GVA.
	mstatusHWritable = uint64(1)<<rv.MstatusMPV | 1<<rv.MstatusGVA
	// medeleg gains ecall-from-VS (10) and the guest-page-fault /
	// virtual-instruction causes (20-23).
	medelegHMask = medelegMask | 1<<rv.ExcEcallFromVS |
		1<<rv.ExcInstrGuestPageFault | 1<<rv.ExcLoadGuestPageFault |
		1<<rv.ExcVirtualInstr | 1<<rv.ExcStoreGuestPageFault
	// hstatus writable fields: GVA, SPV, SPVP, HU, VTVM, VTW, VTSR.
	// VSXL is read-only 64-bit; VGEIN/VSBE hardwired 0.
	hstatusMask = uint64(1)<<rv.HstatusGVA | 1<<rv.HstatusSPV |
		1<<rv.HstatusSPVP | 1<<rv.HstatusHU | 1<<rv.HstatusVTVM |
		1<<rv.HstatusVTW | 1<<rv.HstatusVTSR
	hstatusVSXL = uint64(2) << 32
	// hedeleg: causes a hypervisor may delegate onward to VS (no ecall-
	// from-S/VS/M, no guest-page faults, no virtual instruction).
	hedelegMask = uint64(0xB1FF)
	// vsstatus writable fields; UXL read-only 64-bit.
	vsstatusMask = uint64(1)<<rv.MstatusSIE | 1<<rv.MstatusSPIE |
		1<<rv.MstatusSPP | 1<<rv.MstatusSUM | 1<<rv.MstatusMXR
	vsstatusUXL = uint64(2) << rv.MstatusUXLLo
)

func newCSRFile(cfg *Config) CSRFile {
	misa := rv.MisaMXL64 | rv.MisaI | rv.MisaM | rv.MisaA | rv.MisaS | rv.MisaU
	if cfg.HasH {
		misa |= rv.MisaH
	}
	c := CSRFile{
		cfg:     cfg,
		Misa:    misa,
		Mstatus: uxlFixed,
		PMP:     pmp.NewFile(cfg.NumPMP),
		Custom:  make(map[uint16]uint64),
	}
	if cfg.HasH {
		// The VS interrupt bits of mideleg read as ones (always delegated
		// past M); hstatus.VSXL and vsstatus.UXL are read-only 64-bit.
		c.Mideleg = rv.VSIntMask
		c.Hstatus = hstatusVSXL
		c.Vsstatus = vsstatusUXL
	}
	for _, n := range cfg.CustomCSRs {
		c.Custom[n] = 0
	}
	return c
}

// SetHWLines installs the interrupt lines asserted by the platform
// interrupt controllers this cycle.
func (c *CSRFile) SetHWLines(lines uint64) {
	c.hwLines = lines & hwLineMask
}

// hwLineMask is the set of mip bits driven by platform lines.
const hwLineMask = rv.MIntMask | 1<<rv.IntSExt

// Mip composes the architectural mip value. time is the current mtime,
// needed for the Sstc comparator when enabled.
func (c *CSRFile) Mip(time uint64) uint64 {
	v := c.mipSW | c.hwLines
	if c.SstcEnabled() {
		v &^= 1 << rv.IntSTimer
		if time >= c.Stimecmp {
			v |= 1 << rv.IntSTimer
		}
	}
	return v
}

// SetMip writes the software-writable mip bits (M-mode view).
func (c *CSRFile) SetMip(v uint64) {
	mask := mipSWMask
	if c.SstcEnabled() {
		mask &^= 1 << rv.IntSTimer // STIP is read-only under Sstc
	}
	c.mipSW = c.mipSW&^mask | v&mask
}

// SstcEnabled reports whether the Sstc stimecmp comparator is active.
func (c *CSRFile) SstcEnabled() bool {
	// STCE is writable only on Sstc profiles; testing it first spares the
	// profile load elsewhere (the superblock headroom asks on every armed
	// step).
	return c.Menvcfg&(1<<63) != 0 && c.cfg.HasSstc
}

// mstatusMask returns the writable mstatus bits for this hart.
func (c *CSRFile) mstatusMask() uint64 {
	if c.cfg.HasH {
		return mstatusWritable | mstatusHWritable
	}
	return mstatusWritable
}

// MedelegMask returns the writable medeleg bits for this hart.
func (c *CSRFile) MedelegMask() uint64 {
	if c.cfg.HasH {
		return medelegHMask
	}
	return medelegMask
}

// WriteMstatus applies the WARL rules for mstatus.
func (c *CSRFile) WriteMstatus(v uint64) {
	mask := c.mstatusMask()
	next := c.Mstatus&^mask | v&mask
	// MPP must hold a supported mode; an illegal write keeps the old value.
	if !rv.MPP(next).Valid() {
		next = rv.WithMPP(next, rv.MPP(c.Mstatus))
	}
	// UXL/SXL are read-only 64-bit; FS/VS/XS hardwired 0 (no F/V), so SD=0.
	next = next&^(3<<rv.MstatusUXLLo|3<<rv.MstatusSXLLo) | uxlFixed
	c.Mstatus = next
}

// WriteSstatus applies a supervisor-view write to mstatus.
func (c *CSRFile) WriteSstatus(v uint64) {
	c.WriteMstatus(c.Mstatus&^rv.SstatusMask | v&rv.SstatusMask)
}

// Sstatus returns the supervisor view of mstatus.
func (c *CSRFile) Sstatus() uint64 { return c.Mstatus & rv.SstatusMask }

// legalizeTvec masks a tvec write: only direct (0) and vectored (1) modes
// are supported; reserved modes legalize to direct.
func legalizeTvec(v uint64) uint64 {
	if v&3 > 1 {
		v &^= 3
	}
	return v
}

// legalizeEpc clears the low bits of an epc write (IALIGN=32).
func legalizeEpc(v uint64) uint64 { return v &^ 3 }

// WriteSatp applies the WARL rule: writes programming an unsupported mode
// are ignored entirely.
func (c *CSRFile) WriteSatp(v uint64) {
	switch rv.SatpMode(v) {
	case rv.SatpModeBare, rv.SatpModeSv39:
		c.Satp = v
	}
}

// Sie returns the supervisor view of mie.
func (c *CSRFile) Sie() uint64 { return c.Mie & c.Mideleg & rv.SIntMask }

// WriteSie updates the delegated bits of mie.
func (c *CSRFile) WriteSie(v uint64) {
	// The VS bits forced into mideleg stay out of reach of sie.
	mask := c.Mideleg & rv.SIntMask
	c.Mie = c.Mie&^mask | v&mask
}

// Sip returns the supervisor view of mip.
func (c *CSRFile) Sip(time uint64) uint64 {
	return c.Mip(time) & c.Mideleg & rv.SIntMask
}

// WriteSip updates the S-writable bit of mip (only SSIP is S-writable).
func (c *CSRFile) WriteSip(v uint64) {
	mask := c.Mideleg & (1 << rv.IntSSoft)
	c.mipSW = c.mipSW&^mask | v&mask
}

// Hypervisor-extension CSR semantics. Writes legalize; hip/vsie/vsip are
// views over hvip/hie/hideleg (this machine has no guest external
// interrupts or VS timer lines, so hvip is the only VS interrupt source
// and hip mirrors it exactly).

// WriteMideleg applies the WARL rule: S bits writable, VS bits read-only
// one when the hypervisor extension is present.
func (c *CSRFile) WriteMideleg(v uint64) {
	c.Mideleg = v & midelegMask
	if c.cfg.HasH {
		c.Mideleg |= rv.VSIntMask
	}
}

// WriteHstatus applies the WARL rules for hstatus.
func (c *CSRFile) WriteHstatus(v uint64) {
	c.Hstatus = v&hstatusMask | hstatusVSXL
}

// WriteVsstatus applies the WARL rules for vsstatus.
func (c *CSRFile) WriteVsstatus(v uint64) {
	c.Vsstatus = v&vsstatusMask | vsstatusUXL
}

// WriteHgatp applies the WARL rules: only Bare and Sv39x4 are supported
// (writes of other modes are ignored), ASID bits 59:58 beyond this
// implementation's VMIDLEN read as zero, and the root is 16KiB-aligned
// (PPN[1:0] read-only zero).
func (c *CSRFile) WriteHgatp(v uint64) {
	switch rv.SatpMode(v) {
	case rv.SatpModeBare, rv.HgatpModeSv39x4:
		c.Hgatp = v &^ (3<<58 | 3)
	}
}

// WriteVsatp applies the satp WARL rule to vsatp.
func (c *CSRFile) WriteVsatp(v uint64) {
	switch rv.SatpMode(v) {
	case rv.SatpModeBare, rv.SatpModeSv39:
		c.Vsatp = v
	}
}

// HipView returns the architectural hip value: the VS interrupt bits
// pending in hvip (VSEIP/VSTIP/VSSIP aliases).
func (c *CSRFile) HipView() uint64 { return c.Hvip & rv.VSIntMask }

// WriteHipView writes hip: only VSSIP is writable, aliasing hvip.VSSIP.
func (c *CSRFile) WriteHipView(v uint64) {
	c.Hvip = c.Hvip&^(1<<rv.IntVSSoft) | v&(1<<rv.IntVSSoft)
}

// VsieView returns the architectural vsie value: the hideleg-selected VS
// bits of hie, shifted to S positions.
func (c *CSRFile) VsieView() uint64 {
	return (c.Hie & c.Hideleg & rv.VSIntMask) >> 1
}

// WriteVsieView writes vsie, updating the delegated VS bits of hie.
func (c *CSRFile) WriteVsieView(v uint64) {
	mask := c.Hideleg & rv.VSIntMask
	c.Hie = c.Hie&^mask | (v<<1)&mask
}

// VsipView returns the architectural vsip value: delegated hvip bits at
// S positions.
func (c *CSRFile) VsipView() uint64 {
	return (c.Hvip & c.Hideleg & rv.VSIntMask) >> 1
}

// WriteVsipView writes vsip: only VSSIP (via hideleg) is writable.
func (c *CSRFile) WriteVsipView(v uint64) {
	mask := c.Hideleg & (1 << rv.IntVSSoft)
	c.Hvip = c.Hvip&^mask | (v<<1)&mask
}
