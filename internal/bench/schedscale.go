package bench

import (
	"fmt"
	"time"

	"govfm/internal/asm"
	"govfm/internal/hart"
)

// Multi-hart scheduler scaling: host throughput of the sequential
// round-robin versus the quantum-parallel scheduler on the same closed
// compute workload, at growing hart counts. The workload is scheduler-
// equivalence-clean (per-hart disjoint windows, no MMIO, quiet interrupt
// lines), so every per-hart cycle counter is asserted bit-identical
// between the two runs — the speedup is pure host-side gain. On a
// single-CPU host the gain comes from amortization (interrupt-line
// latching, watchdog checks, and wall-clock division drop from per-step to
// per-quantum); with real cores it additionally gets true parallelism.

// SchedScaleResult is one hart-count row of the comparison.
type SchedScaleResult struct {
	Platform string `json:"platform"`
	Harts    int    `json:"harts"`

	// Per-hart instruction budget and (asserted identical) total cycles.
	Steps  uint64 `json:"steps"`
	Cycles uint64 `json:"cycles"`

	HostNsSeq int64   `json:"host_ns_seq"`
	HostNsPar int64   `json:"host_ns_par"`
	MIPSSeq   float64 `json:"mips_seq"`
	MIPSPar   float64 `json:"mips_par"`
	Speedup   float64 `json:"speedup"` // seq host time / par host time
}

// schedScaleSteps is the per-hart instruction budget per measurement.
const schedScaleSteps = 1_500_000

// schedScaleReps is how many times each (harts, scheduler) pair runs; the
// fastest host time wins, damping scheduler noise on a shared host.
const schedScaleReps = 5

// schedScaleProg is a never-halting per-hart compute loop in disjoint
// windows: mostly ALU with one store per iteration, the same mix the
// equivalence gate's scheduler sweep exercises at full randomness.
func schedScaleProg() []byte {
	a := asm.New(hart.DramBase)
	a.Li(asm.S0, hart.DramBase+0x10000)
	a.Slli(asm.T0, asm.A0, 12)
	a.Add(asm.S0, asm.S0, asm.T0)
	a.Li(asm.T1, 0)
	a.Li(asm.T2, 7)
	a.Label("loop")
	for i := 0; i < 12; i++ {
		a.Addi(asm.T1, asm.T1, 1)
		a.Xor(asm.T4, asm.T4, asm.T1)
	}
	a.Mul(asm.T3, asm.T1, asm.T2)
	a.Sd(asm.T4, asm.S0, 0)
	a.J("loop")
	return a.MustAssemble()
}

// schedScaleMachine builds a fresh native machine for one measurement.
func schedScaleMachine(newCfg func() *hart.Config, harts int, kind hart.SchedKind) (*hart.Machine, error) {
	cfg := newCfg()
	cfg.Harts = harts
	m, err := hart.NewMachine(cfg, 1<<20)
	if err != nil {
		return nil, err
	}
	m.Sched = kind
	if err := m.LoadImage(hart.DramBase, schedScaleProg()); err != nil {
		return nil, err
	}
	m.Reset(hart.DramBase)
	return m, nil
}

// SchedScale measures seq-vs-par host throughput at each hart count and
// asserts per-hart cycle equivalence between the schedulers.
func SchedScale(newCfg func() *hart.Config, hartCounts []int) ([]*SchedScaleResult, error) {
	name := newCfg().Name
	var out []*SchedScaleResult
	for _, harts := range hartCounts {
		var nsSeq, nsPar int64
		var cycSeq, cycPar uint64
		for rep := 0; rep < schedScaleReps; rep++ {
			ms, err := schedScaleMachine(newCfg, harts, hart.SchedSeq)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			ms.Run(schedScaleSteps)
			dSeq := time.Since(t0).Nanoseconds()

			mp, err := schedScaleMachine(newCfg, harts, hart.SchedPar)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			mp.RunParBudget(schedScaleSteps)
			dPar := time.Since(t0).Nanoseconds()

			var cs, cp uint64
			for i := range ms.Harts {
				if ms.Harts[i].Cycles != mp.Harts[i].Cycles {
					return nil, fmt.Errorf(
						"schedscale %s harts=%d: scheduler changed the cycle model: hart%d seq=%d par=%d",
						name, harts, i, ms.Harts[i].Cycles, mp.Harts[i].Cycles)
				}
				cs += ms.Harts[i].Cycles
				cp += mp.Harts[i].Cycles
			}
			if rep == 0 || dSeq < nsSeq {
				nsSeq = dSeq
			}
			if rep == 0 || dPar < nsPar {
				nsPar = dPar
			}
			cycSeq, cycPar = cs, cp
		}
		_ = cycPar
		r := &SchedScaleResult{
			Platform: name, Harts: harts,
			Steps: schedScaleSteps, Cycles: cycSeq,
			HostNsSeq: nsSeq, HostNsPar: nsPar,
		}
		totalIns := float64(schedScaleSteps) * float64(harts)
		if nsSeq > 0 {
			r.MIPSSeq = totalIns * 1e3 / float64(nsSeq)
		}
		if nsPar > 0 {
			r.MIPSPar = totalIns * 1e3 / float64(nsPar)
			r.Speedup = float64(nsSeq) / float64(nsPar)
		}
		out = append(out, r)
	}
	return out, nil
}
