package fuzz

import (
	"fmt"

	"govfm/internal/hart"
	"govfm/internal/refmodel"
)

// This file implements the monitored arm of the equivalence gate: every
// lockstep test case runs twice, once with the host acceleration caches on
// and once with them off, and the two executions must agree on everything
// architectural — final findings, lockstep step counts, the full machine
// images of the native and the monitor-virtualized machine (the simulated
// cycle counters included), and the monitor's virtual CSRs. Any
// disagreement means a host cache leaked into the architecture, which is
// the one bug class the caches must never have. It is the only equivalence
// check that runs a monitor; the bare-machine sweep is machequiv.go.

// DefaultFastPath is the host-acceleration setting NewEngine applies to
// freshly built engines. cmd/fuzzdiff's -fastpath=off sets it false so a
// whole fuzzing run can exercise the reference paths.
var DefaultFastPath = true

// SetFastPath toggles host-side acceleration on both of the engine's
// machines (the native one and the monitor-virtualized one). The baseline
// images carry the switch too, so every case's restore keeps it.
func (e *Engine) SetFastPath(on bool) {
	e.Native.SetFastPath(on)
	e.Virt.SetFastPath(on)
	if e.natBase != nil {
		e.natBase.FastPath, e.virtBase.FastPath = on, on
	}
}

// EquivMismatch is one divergence the equivalence gate found: a lockstep
// case whose fast and slow runs disagree, or a machine case whose run in
// some tier/sched/fork cell disagrees with its oracle.
type EquivMismatch struct {
	Case fmt.Stringer // *TestCase or *MachineCase
	Desc string
}

func (m *EquivMismatch) String() string { return m.Desc + " in " + m.Case.String() }

// EquivStats summarizes an equivalence run. Steps counts lockstep steps on
// the fast side in the monitored arm and sequential oracle steps in the
// machine sweep; Runs through Cells are the machine sweep's.
type EquivStats struct {
	Cases      int
	Steps      int
	Runs       int            // machine runs compared against an oracle
	SBRetired  uint64         // instructions retired inside superblocks
	ForkPages  int            // pages carried by fork images
	Cells      map[string]int // runs per tier/sched/fork cell
	Mismatches []*EquivMismatch
}

// RunEquivalence fuzzes `cases` test cases per profile through a fuzzer
// whose engines run with all host caches enabled — the same
// coverage-guided exploration as the normal fuzzer, so the equivalence
// gate visits the same interesting trap/emulation paths — and replays
// every case on a reference (cache-free) engine of the same profile.
func RunEquivalence(profiles []string, seed int64, cases int) (*EquivStats, error) {
	f, err := NewFuzzer(profiles, seed)
	if err != nil {
		return nil, err
	}
	slow := make([]*Engine, len(profiles))
	for i, p := range profiles {
		if slow[i], err = NewEngine(p); err != nil {
			return nil, err
		}
		f.Engines[i].SetFastPath(true)
		slow[i].SetFastPath(false)
	}
	st := &EquivStats{}
	for c := 0; c < cases*len(profiles); c++ {
		i := c % len(profiles)
		tc := f.nextCase(i)
		before := f.Steps
		fF := f.runOne(i, tc)
		stepsF := f.Steps - before
		fS, stepsS := slow[i].Run(tc)

		st.Cases++
		st.Steps += stepsF
		if desc := equivCompare(f.Engines[i], slow[i], fF, fS, stepsF, stepsS); desc != "" {
			st.Mismatches = append(st.Mismatches, &EquivMismatch{Case: tc, Desc: desc})
			if len(st.Mismatches) >= 10 {
				break
			}
		}
	}
	return st, nil
}

// equivCompare checks every observable of a finished case pair and returns
// a description of the first divergence, or "". Both machines of each side
// are compared by their full images (hart.DiffImages): registers, the
// cycle and instret counters — the paper-metric invariant, the host caches
// must not change a single charged cycle — every CSR, the devices and all
// of RAM. The monitor's virtual CSRs live outside the image and are
// compared through the reference-model view.
func equivCompare(eF, eS *Engine, fF, fS *Finding, stepsF, stepsS int) string {
	if (fF == nil) != (fS == nil) {
		return fmt.Sprintf("finding presence: fast=%v slow=%v", fF, fS)
	}
	if fF != nil && (fF.Where != fS.Where || fF.Step != fS.Step) {
		return fmt.Sprintf("finding: fast=%s@%d slow=%s@%d", fF.Where, fF.Step, fS.Where, fS.Step)
	}
	if stepsF != stepsS {
		return fmt.Sprintf("lockstep steps: fast=%d slow=%d", stepsF, stepsS)
	}
	for _, side := range []struct {
		name   string
		mF, mS *hart.Machine
	}{{"native", eF.Native, eS.Native}, {"virt", eF.Virt, eS.Virt}} {
		if d := hart.DiffImages(snapshot(side.mS), snapshot(side.mF)); d != "" {
			return side.name + " " + d + " (want=slow got=fast)"
		}
	}
	if ds := refmodel.Diff(eF.VirtCfg, eF.virtView(), eS.virtView()); len(ds) > 0 {
		return "virt CSR state: " + ds[0].String()
	}
	return ""
}
