package fuzz

import (
	"fmt"
	"math/rand"

	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/policy/ace"
	"govfm/internal/rv"
)

// The TEE lifecycle fuzzer: seeded random operation sequences over the
// ACE confidential-compute FSM, driven directly through the policy hook
// interface on a bare monitor-attached machine, checked against an
// independent shadow model after every operation. The shadow tracks what
// each lifecycle transition *should* have done (slot states, donation
// set, shared windows, launch measurements); any disagreement with the
// policy's own view, any structural-invariant violation, any crack in the
// Dorami wall, or any disagreement between the memoized world-switch wall
// check and the full probe is a finding.

// TEEReport summarizes one fuzzdiff -tee run.
type TEEReport struct {
	Cases int // operation sequences executed
	Ops   int // lifecycle operations issued

	// Violations and HeavySwitches aggregate the policy's own counters:
	// the number of forged/ill-ordered calls it rejected and the number of
	// full scrub context switches it performed. A TEE run that exercised
	// the FSM has both well above zero.
	Violations    uint64
	HeavySwitches uint64

	Failures []string
}

// teeRegions is the donation pool: NAPOT-aligned 64 KiB regions in
// otherwise unused OS memory, far from the kernel image and the monitor.
func teeRegions() []uint64 {
	var rs []uint64
	for i := 0; i < 8; i++ {
		rs = append(rs, core.OSBase+0x400_0000+uint64(i)*0x20000)
	}
	return rs
}

const teeRegionSz = 0x10000

// teeShadow is the independent model of the FSM the fuzzer compares
// against.
type teeShadow struct {
	state    [ace.MaxCVMs]int // 0 free, 1 ready, 2 running
	shared   [ace.MaxCVMs]uint64
	measure  [ace.MaxCVMs]uint64
	base     [ace.MaxCVMs]uint64
	occupant int             // CVM occupying the hart, -1 when the host runs
	donated  map[uint64]bool // region base -> donated
}

func widenSBI(v int64) uint64 { return uint64(v) }

// RunTEE executes the TEE lifecycle fuzz campaign: cases operation
// sequences per profile, each on a fresh bare monitor with a fresh ACE
// policy.
func RunTEE(profiles []string, seed int64, cases int) (*TEEReport, error) {
	cfgs := map[string]func() *hart.Config{
		"visionfive2": hart.VisionFive2,
		"p550":        hart.PremierP550,
	}
	rep := &TEEReport{}
	for pi, p := range profiles {
		mk, ok := cfgs[p]
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", p)
		}
		rng := rand.New(rand.NewSource(seed + int64(pi)*7919))
		for c := 0; c < cases; c++ {
			if err := runTEECase(rep, mk, rng, fmt.Sprintf("%s/case%d", p, c)); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

func runTEECase(rep *TEEReport, mk func() *hart.Config, rng *rand.Rand, name string) error {
	cfg := mk()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		return err
	}
	pol := ace.New()
	mon, err := core.Attach(m, core.Options{Policy: pol, FirmwareEntry: core.FirmwareBase})
	if err != nil {
		return err
	}
	mon.Boot()
	ctx := mon.Ctx[0]
	ctx.VirtMode = rv.ModeS

	fail := func(op string, format string, args ...any) {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("%s: %s: %s", name, op, fmt.Sprintf(format, args...)))
	}
	call := func(ext, fn, a0, a1, a2 uint64) uint64 {
		h := ctx.Hart
		h.Regs[17], h.Regs[16] = ext, fn
		h.Regs[10], h.Regs[11], h.Regs[12] = a0, a1, a2
		pol.OnOSEcall(ctx)
		rep.Ops++
		return h.Regs[10]
	}

	sh := &teeShadow{occupant: -1, donated: make(map[uint64]bool)}
	regions := teeRegions()
	sbiDenied := widenSBI(rv.SBIErrDenied)

	// check compares the policy's view of every slot with the shadow and
	// re-derives the structural invariants and the wall after op.
	check := func(op string) {
		for i := 0; i < ace.MaxCVMs; i++ {
			st, shared, err := pol.CVMState(i)
			if err != nil {
				fail(op, "CVMState(%d): %v", i, err)
				continue
			}
			if st != sh.state[i] || shared != sh.shared[i] {
				fail(op, "cvm %d state=%d shared=%#x, shadow wants state=%d shared=%#x",
					i, st, shared, sh.state[i], sh.shared[i])
			}
			if sh.state[i] != 0 && pol.Measurement(i) != sh.measure[i] {
				fail(op, "cvm %d measurement %#x, shadow wants %#x",
					i, pol.Measurement(i), sh.measure[i])
			}
		}
		if err := pol.CheckInvariants(); err != nil {
			fail(op, "invariants: %v", err)
		}
		full := mon.CheckWall(ctx)
		if full != nil {
			fail(op, "wall: %v", full)
		}
		// The world-switch form of the check, memoized on the PMP content
		// id, must reach the same verdict as the full probe.
		if memo := mon.VerifWallAfterSwitch(ctx); (memo == nil) != (full == nil) {
			fail(op, "memoized wall check %v, full CheckWall %v", memo, full)
		}
	}

	readySlots := func() []int {
		var s []int
		for i := 0; i < ace.MaxCVMs; i++ {
			if sh.state[i] == 1 {
				s = append(s, i)
			}
		}
		return s
	}
	freeRegion := func() (uint64, bool) {
		start := rng.Intn(len(regions))
		for i := 0; i < len(regions); i++ {
			r := regions[(start+i)%len(regions)]
			if !sh.donated[r] {
				return r, true
			}
		}
		return 0, false
	}
	anyFreeSlot := func() bool {
		for i := 0; i < ace.MaxCVMs; i++ {
			if sh.state[i] == 0 {
				return true
			}
		}
		return false
	}

	ops := 40 + rng.Intn(40)
	for op := 0; op < ops; op++ {
		if sh.occupant >= 0 {
			// A CVM holds the hart: issue guest-side traffic.
			v := sh.occupant
			switch rng.Intn(6) {
			case 0: // voluntary exit
				val := rng.Uint64()
				if r := call(rv.SBIExtCoveGuest, ace.FnGuestExit, val, 0, 0); r != val {
					fail("guest-exit", "host resumed with a0=%#x, want exit value %#x", r, val)
				}
				sh.state[v], sh.occupant = 1, -1
			case 1: // valid share
				page := sh.base[v] + uint64(rng.Intn(teeRegionSz/4096))*4096
				if r := call(rv.SBIExtCoveGuest, ace.FnGuestSharePage, page, 0, 0); r != ace.OK {
					fail("guest-share", "valid share of %#x returned %#x", page, r)
				} else {
					sh.shared[v] = page
				}
			case 2: // forged share: misaligned or outside the CVM
				page := sh.base[v] + 12
				if rng.Intn(2) == 0 {
					page = sh.base[v] + teeRegionSz
				}
				if r := call(rv.SBIExtCoveGuest, ace.FnGuestSharePage, page, 0, 0); r != ace.ErrInvalidParam {
					fail("guest-share-bad", "share of %#x returned %#x, want reject", page, r)
				}
			case 3: // local attestation
				if r := call(rv.SBIExtCoveGuest, ace.FnGuestAttest, 0, 0, 0); r != sh.measure[v] {
					fail("guest-attest", "returned %#x, want %#x", r, sh.measure[v])
				}
			case 4: // forged COVH from inside the CVM
				if r := call(rv.SBIExtCoveHost, ace.FnPromoteToCVM, sh.base[v], teeRegionSz, sh.base[v]); r != sbiDenied {
					fail("forged-covh", "COVH inside CVM returned %#x, want denied %#x", r, sbiDenied)
				}
			default: // unknown COVG function
				if r := call(rv.SBIExtCoveGuest, 0x7F, 0, 0, 0); r != ace.ErrInvalidParam {
					fail("guest-unknown", "unknown COVG fn returned %#x", r)
				}
			}
			check("guest-op")
			continue
		}

		// The host holds the hart.
		switch rng.Intn(10) {
		case 0, 1: // valid promote
			reg, ok := freeRegion()
			if !ok {
				continue
			}
			r := call(rv.SBIExtCoveHost, ace.FnPromoteToCVM, reg, teeRegionSz, reg)
			if !anyFreeSlot() {
				if r != ace.ErrInvalidParam {
					fail("promote-full", "promote with all slots live returned %#x", r)
				}
				break
			}
			if r >= ace.MaxCVMs {
				fail("promote", "valid promote of %#x returned %#x", reg, r)
				break
			}
			id := int(r)
			if sh.state[id] != 0 {
				fail("promote", "policy reused live slot %d", id)
				break
			}
			sh.state[id], sh.base[id] = 1, reg
			sh.shared[id] = 0
			sh.measure[id] = pol.Measurement(id)
			if sh.measure[id] == 0 {
				fail("promote", "live cvm %d measured 0", id)
			}
			sh.donated[reg] = true
		case 2: // geometry-invalid promote
			reg := regions[rng.Intn(len(regions))]
			bad := [][3]uint64{
				{reg + 4, teeRegionSz, reg + 4},                   // misaligned base
				{reg, teeRegionSz + 4096, reg},                    // non-power-of-two size
				{reg, teeRegionSz, reg - 8},                       // entry outside
				{core.MiralisBase, teeRegionSz, core.MiralisBase}, // monitor overlap
			}
			b := bad[rng.Intn(len(bad))]
			if r := call(rv.SBIExtCoveHost, ace.FnPromoteToCVM, b[0], b[1], b[2]); r != ace.ErrInvalidParam {
				fail("promote-bad", "promote(%#x,%#x,%#x) returned %#x, want reject", b[0], b[1], b[2], r)
			}
		case 3: // double donation
			var taken uint64
			for r, d := range sh.donated {
				if d {
					taken = r
					break
				}
			}
			if taken == 0 {
				continue
			}
			if r := call(rv.SBIExtCoveHost, ace.FnPromoteToCVM, taken, teeRegionSz, taken); r != ace.ErrInvalidParam {
				fail("double-donate", "re-promote of donated %#x returned %#x, want reject", taken, r)
			}
		case 4: // run a ready CVM (the hart steal)
			rs := readySlots()
			if len(rs) == 0 {
				continue
			}
			id := rs[rng.Intn(len(rs))]
			call(rv.SBIExtCoveHost, ace.FnRunCVM, uint64(id), 0, 0)
			sh.state[id], sh.occupant = 2, id
		case 5: // forged steal: free or out-of-range id
			id := uint64(ace.MaxCVMs + rng.Intn(3))
			if rng.Intn(2) == 0 {
				for i := 0; i < ace.MaxCVMs; i++ {
					if sh.state[i] == 0 {
						id = uint64(i)
						break
					}
				}
			}
			if id < ace.MaxCVMs && sh.state[id] != 0 {
				continue
			}
			if r := call(rv.SBIExtCoveHost, ace.FnRunCVM, id, 0, 0); r != ace.ErrInvalidParam {
				fail("forged-steal", "run of cvm %d returned %#x, want reject", id, r)
			}
		case 6: // destroy
			rs := readySlots()
			if len(rs) == 0 {
				if r := call(rv.SBIExtCoveHost, ace.FnDestroyCVM, uint64(rng.Intn(ace.MaxCVMs+2)), 0, 0); r != ace.ErrInvalidParam {
					fail("destroy-bogus", "destroy of dead/bogus id returned %#x", r)
				}
				break
			}
			id := rs[rng.Intn(len(rs))]
			if r := call(rv.SBIExtCoveHost, ace.FnDestroyCVM, uint64(id), 0, 0); r != ace.OK {
				fail("destroy", "destroy of ready cvm %d returned %#x", id, r)
				break
			}
			delete(sh.donated, sh.base[id])
			sh.state[id], sh.base[id], sh.shared[id], sh.measure[id] = 0, 0, 0, 0
		case 7: // reclaim the shared window
			id := rng.Intn(ace.MaxCVMs)
			r := call(rv.SBIExtCoveHost, ace.FnReclaimPage, uint64(id), 0, 0)
			switch {
			case sh.state[id] == 1 && sh.shared[id] != 0:
				if r != ace.OK {
					fail("reclaim", "reclaim of shared cvm %d returned %#x", id, r)
				} else {
					sh.shared[id] = 0
				}
			default:
				if r != ace.ErrInvalidParam {
					fail("reclaim-bad", "reclaim of cvm %d (state %d shared %#x) returned %#x, want reject",
						id, sh.state[id], sh.shared[id], r)
				}
			}
		case 8: // host attestation
			id := rng.Intn(ace.MaxCVMs)
			r := call(rv.SBIExtCoveHost, ace.FnAttestCVM, uint64(id), 0, 0)
			if sh.state[id] != 0 {
				if r != sh.measure[id] {
					fail("attest", "cvm %d attested %#x, want %#x", id, r, sh.measure[id])
				}
			} else if r != ace.ErrInvalidParam {
				fail("attest-free", "attest of free cvm %d returned %#x", id, r)
			}
		default: // forged COVG from the host (no CVM on the hart)
			fns := []uint64{ace.FnGuestExit, ace.FnGuestSharePage, ace.FnGuestAttest}
			if r := call(rv.SBIExtCoveGuest, fns[rng.Intn(len(fns))], rng.Uint64(), 0, 0); r != sbiDenied {
				fail("forged-covg", "COVG with no CVM returned %#x, want denied %#x", r, sbiDenied)
			}
		}
		check("host-op")
	}

	// Fork independence: a forked policy must keep its own CVM world when
	// the parent's is torn down. (Only when the host holds the hart — a
	// COVH destroy from inside a CVM would be denied as forged.)
	if rs := readySlots(); len(rs) > 0 && sh.occupant < 0 {
		fp, ok := pol.ForkPolicy().(*ace.Policy)
		if !ok {
			fail("fork", "ForkPolicy did not return *ace.Policy")
		} else {
			id := rs[0]
			if r := call(rv.SBIExtCoveHost, ace.FnDestroyCVM, uint64(id), 0, 0); r != ace.OK {
				fail("fork", "parent destroy of cvm %d returned %#x", id, r)
			}
			delete(sh.donated, sh.base[id])
			sh.state[id], sh.base[id], sh.shared[id], sh.measure[id] = 0, 0, 0, 0
			st, _, err := fp.CVMState(id)
			if err != nil || st != 1 {
				fail("fork", "fork lost cvm %d after parent destroy (state %d, %v)", id, st, err)
			}
			if fp.Measurement(id) == 0 {
				fail("fork", "fork lost cvm %d measurement", id)
			}
			if err := fp.CheckInvariants(); err != nil {
				fail("fork", "fork invariants: %v", err)
			}
			check("fork-destroy")
		}
	}

	rep.Cases++
	rep.Violations += pol.Violations
	rep.HeavySwitches += pol.HeavySwitches
	return nil
}
