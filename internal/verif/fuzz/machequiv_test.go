package fuzz

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"govfm/internal/hart"
	"govfm/internal/rv"
)

// TestMachineEquivalenceSmoke runs a short machine-equivalence sweep on
// both profiles and requires bit-exact end-state agreement in every cell
// of {interp, caches, superblocks} × {seq, par(q)} × {cold, fork}. It also
// requires the sweep to have exercised what it claims: every cell, the
// superblock tier, fork images that carry pages, and the frozen-clock
// comparison of the two schedulers. The full-size run is the -equiv gate
// of scripts/verify.sh.
func TestMachineEquivalenceSmoke(t *testing.T) {
	profiles := []string{"visionfive2", "p550"}
	perProfile := 72 // 144 cases: every rig meets every quantum and fork tier
	if testing.Short() {
		// The race-detector pass: forks, both schedulers and every hart
		// count, but not every cell.
		perProfile = 12
	}
	st, err := RunMachineEquivalence(profiles, 1, perProfile)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range st.Mismatches {
		t.Errorf("divergence: %s", m)
	}
	if st.Cases != perProfile*len(profiles) || st.Steps == 0 {
		t.Fatalf("degenerate run: %d cases, %d steps", st.Cases, st.Steps)
	}
	if want := len(tierNames) * (1 + len(equivQuanta)) * 2; !testing.Short() && len(st.Cells) != want {
		t.Errorf("covered %d cells, want %d: %v", len(st.Cells), want, st.Cells)
	}
	if st.SBRetired == 0 {
		t.Error("no instructions retired inside superblocks: the tier never engaged")
	}
	if st.ForkPages == 0 {
		t.Error("fork images carried no pages: the workload never touched RAM")
	}
	// Per case and scheduler: two cold runs and the fork's two halves are
	// compared with the oracle; frozen-clock cases add the scheduler pair.
	if want := st.Cases*2*4 + st.Cases/2; st.Runs != want {
		t.Errorf("%d comparisons, want %d", st.Runs, want)
	}
	t.Logf("%d cases, %d comparisons, %d steps, %d sb-retired, %d fork pages",
		st.Cases, st.Runs, st.Steps, st.SBRetired, st.ForkPages)
}

// TestMachineCaseSeedsState: install puts the state the old comparators
// never looked at into the machine — H and VS CSRs on H profiles, live LR
// reservations, PLIC priorities and enables — so a fork or restore that
// drops any of it changes the end state.
func TestMachineCaseSeedsState(t *testing.T) {
	r, err := newMachineRig("p550", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var hgatp, vsatp, vsscratch, res, plicEnable int
	for c := 0; c < 40; c++ {
		tc := r.genCase(rng, 64, tierInterp)
		install(r.run, tc, tierInterp, hart.SchedSeq)
		img := snapshot(r.run)
		for _, h := range img.Harts {
			if rv.SatpMode(h.CSR.Hgatp) == rv.HgatpModeSv39x4 {
				hgatp++
			}
			if rv.SatpMode(h.CSR.Vsatp) == rv.SatpModeSv39 {
				vsatp++
			}
			if h.CSR.Vsscratch != 0 {
				vsscratch++
			}
			if h.ResValid {
				res++
			}
		}
		for _, e := range img.Plic.Enable {
			if e != 0 {
				plicEnable++
			}
		}
	}
	if hgatp == 0 || vsatp == 0 || vsscratch == 0 || res == 0 || plicEnable == 0 {
		t.Errorf("unseeded state: hgatp=%d vsatp=%d vsscratch=%d reservations=%d plic-enables=%d",
			hgatp, vsatp, vsscratch, res, plicEnable)
	}
}

// TestSchedEquivalenceSmoke is the scheduler half of the machine sweep on
// its own seed: every tier must run under the parallel scheduler at every
// quantum with no divergence from the same tier's sequential oracle, and
// frozen-clock cases must also compare the two schedulers directly.
func TestSchedEquivalenceSmoke(t *testing.T) {
	perProfile := 48
	if testing.Short() {
		perProfile = 12
	}
	st, err := RunMachineEquivalence([]string{"visionfive2", "p550"}, 2, perProfile)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cases == 0 || st.Steps == 0 {
		t.Fatalf("degenerate run: %d cases, %d steps", st.Cases, st.Steps)
	}
	for _, m := range st.Mismatches {
		t.Errorf("scheduler divergence: %s", m)
	}
	for tier := 0; tier < numTiers; tier++ {
		for _, q := range equivQuanta {
			cell := fmt.Sprintf("%s/par(q=%d)/cold", tierNames[tier], q)
			if st.Cells[cell] == 0 {
				t.Errorf("cell %s never ran", cell)
			}
		}
	}
	if seqVsPar := st.Runs - st.Cases*2*4; seqVsPar <= 0 {
		t.Errorf("no frozen-clock seq-vs-par comparison ran (%d comparisons, %d cases)", st.Runs, st.Cases)
	}
	t.Logf("sched equivalence: %d cases, %d steps, %d comparisons", st.Cases, st.Steps, st.Runs)
}

// TestSuperblockEquivalenceSmoke is the superblock half of the machine
// sweep on its own seed: the superblock tier must run cold under both
// schedulers and forked, retire instructions inside superblocks, and end
// bit-exact with the interpreter.
func TestSuperblockEquivalenceSmoke(t *testing.T) {
	perProfile := 48
	if testing.Short() {
		perProfile = 12
	}
	st, err := RunMachineEquivalence([]string{"visionfive2", "p550"}, 3, perProfile)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cases == 0 || st.Steps == 0 {
		t.Fatalf("degenerate run: %d cases, %d steps", st.Cases, st.Steps)
	}
	if st.SBRetired == 0 {
		t.Fatal("no instructions retired inside superblocks: the tier never engaged")
	}
	for _, m := range st.Mismatches {
		t.Errorf("superblock divergence: %s", m)
	}
	var seq, par, fork int
	for cell, n := range st.Cells {
		switch {
		case !strings.HasPrefix(cell, tierNames[tierSB]+"/"):
		case strings.HasSuffix(cell, "/fork"):
			fork += n
		case strings.Contains(cell, "/par("):
			par += n
		default:
			seq += n
		}
	}
	if seq == 0 || par == 0 || fork == 0 {
		t.Errorf("superblock cells: %d seq, %d par, %d fork runs", seq, par, fork)
	}
	t.Logf("superblock equivalence: %d cases, %d steps, %d sb-retired", st.Cases, st.Steps, st.SBRetired)
}

// TestMachineCaseSeedsSstc: on the Sstc profile most cases turn the
// S-level comparator on and place it near the current time, so the gate
// runs the stimecmp paths of the pending check, the superblock headroom
// and WFI batching; the boards' cases never do.
func TestMachineCaseSeedsSstc(t *testing.T) {
	for _, prof := range []string{"rva23", "visionfive2"} {
		r, err := newMachineRig(prof, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		var stce, near int
		for c := 0; c < 40; c++ {
			tc := r.genCase(rng, 64, tierInterp)
			install(r.run, tc, tierInterp, hart.SchedSeq)
			h := r.run.Harts[0]
			if h.CSR.SstcEnabled() {
				stce++
				if h.CSR.Stimecmp < 48 {
					near++
				}
			}
		}
		if prof == "rva23" && (stce < 20 || near != stce) {
			t.Errorf("rva23: %d of 40 cases enable Sstc, %d with stimecmp near mtime", stce, near)
		}
		if prof != "rva23" && stce != 0 {
			t.Errorf("%s: %d cases enable Sstc on a profile without it", prof, stce)
		}
	}
}
