package main

import (
	"fmt"
	"time"

	"govfm/internal/core"
	"govfm/internal/firmware"
	"govfm/internal/hart"
)

// simWorkload is a single-machine workload: gosbi under the monitor with
// offload on and no policy, on the VisionFive 2 profile, running one
// generated S-mode kernel to guest-exit-pass. One operation is one
// machine built, booted and run to halt.
type simWorkload struct {
	name  string
	harts int
	// chunkSteps is how many steps the machine runs between two
	// reference slices: a few dozen chunks per run.
	chunkSteps uint64
	kernel     func(seed int64, scale float64) []byte
	// wallEqualsSwitches requires the monitor to have re-verified its
	// PMP wall after every world switch.
	wallEqualsSwitches bool
}

var simWorkloads = map[string]*simWorkload{
	"trap-storm": {name: "trap-storm", harts: 1, chunkSteps: 1 << 20, kernel: trapStormKernel, wallEqualsSwitches: true},
	"compute": {name: "compute", harts: 1, chunkSteps: 1 << 22, kernel: func(seed int64, scale float64) []byte {
		return computeSpec(seed, scale).BuildKernel(core.OSBase)
	}},
	"smp": {name: "smp", harts: 4, chunkSteps: 1 << 19, kernel: func(seed int64, scale float64) []byte {
		return smpKernel(smpSpec(seed, scale))
	}},
}

// maxRunSteps bounds one run; every workload halts far below it.
const maxRunSteps = 4_000_000_000

// simMachine is one set-up machine, ready to run.
type simMachine struct {
	m   *hart.Machine
	mon *core.Monitor
}

func (w *simWorkload) setup(rec *recorder, seed int64, scale float64) (*simMachine, error) {
	var fw, kern []byte
	_ = rec.do("setup.images", func() error {
		fw = firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
			OSEntry: core.OSBase, Harts: w.harts, FirmwareSize: core.FirmwareSize,
		}).Bytes
		kern = w.kernel(seed, scale)
		return nil
	})
	s := &simMachine{}
	err := rec.do("setup.machine", func() error {
		cfg := hart.VisionFive2()
		cfg.Harts = w.harts
		m, err := hart.NewMachine(cfg, core.DramSize)
		if err != nil {
			return err
		}
		if err := m.LoadImage(core.FirmwareBase, fw); err != nil {
			return err
		}
		if err := m.LoadImage(core.OSBase, kern); err != nil {
			return err
		}
		s.m = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rec.do("setup.boot", func() error {
		mon, err := core.Attach(s.m, core.Options{Offload: true, FirmwareEntry: core.FirmwareBase})
		if err != nil {
			return err
		}
		mon.Boot()
		s.mon = mon
		return nil
	})
	return s, err
}

// hartCount is one hart's simulated outcome: the output a run is
// checked against.
type hartCount struct {
	Cycles  uint64 `json:"cycles"`
	Instret uint64 `json:"instret"`
}

// simSetups is how many times a batch sets its machine up; the batch's
// set-up time is their median and the last machine runs. A set-up takes
// well under a millisecond, so one sample would be mostly noise.
const simSetups = 16

func (w *simWorkload) runBatch(c *batchCtx) (*batchResult, error) {
	var s *simMachine
	setups := make([]float64, simSetups)
	for i := range setups {
		setupStart := time.Now()
		err := c.rec.do("setup", func() error {
			var err error
			s, err = w.setup(c.rec, c.seed, c.scale)
			return err
		})
		setups[i] = time.Since(setupStart).Seconds()
		if err != nil {
			return nil, err
		}
	}
	setupS := median(setups)
	m, mon := s.m, s.mon
	st0 := mon.TotalStats()
	epoch0 := make([]uint64, len(m.Harts))
	for i, h := range m.Harts {
		epoch0[i] = h.CSR.PMP.Epoch()
	}

	// The machine runs in chunks, with a reference slice after each one
	// (untraced batches only), so host speed is sampled all through the
	// run. Only the chunks are timed.
	c.startTimed()
	var runS float64
	_ = c.rec.do("run", func() error {
		for steps := uint64(0); steps < maxRunSteps; {
			start := time.Now()
			n, halted := m.Run(min(w.chunkSteps, maxRunSteps-steps))
			runS += time.Since(start).Seconds()
			steps += n
			if halted {
				break
			}
			c.host.sample()
		}
		return nil
	})
	alloc := c.stopTimed()

	res := &batchResult{setupS: setupS, runS: runS, ops: 1, latMs: []float64{runS * 1e3}, allocMiB: alloc}
	counts := make([]hartCount, len(m.Harts))
	var perf hart.PerfCounters
	var bumps uint64
	for i, h := range m.Harts {
		counts[i] = hartCount{h.Cycles, h.Instret}
		res.instret += h.Instret
		bumps += h.CSR.PMP.Epoch() - epoch0[i]
		p := &h.Perf
		perf.DecodeHits += p.DecodeHits
		perf.DecodeMisses += p.DecodeMisses
		perf.SBTranslations += p.SBTranslations
		perf.SBRetired += p.SBRetired
		perf.SBGuardMisses += p.SBGuardMisses
		perf.SBAborts += p.SBAborts
	}
	st := mon.TotalStats()
	res.counters = map[string]float64{
		"pmp.epoch_bumps":      float64(bumps),
		"core.world_switches":  float64(st.WorldSwitches - st0.WorldSwitches),
		"core.emulations":      float64(st.Emulations - st0.Emulations),
		"core.wall_checks":     float64(st.WallChecks - st0.WallChecks),
		"core.virt_interrupts": float64(st.VirtInterrupts - st0.VirtInterrupts),
		"hart.sb.guard_misses": float64(perf.SBGuardMisses),
		"hart.sb.translations": float64(perf.SBTranslations),
		"hart.sb.aborts":       float64(perf.SBAborts),
		"hart.decode.hit_pct":  pct(perf.DecodeHits, perf.DecodeHits+perf.DecodeMisses),
		"hart.sb.retired_pct":  pct(perf.SBRetired, res.instret),
	}

	halted, reason := m.Halted()
	switch {
	case !halted || reason != "guest-exit-pass":
		res.fail(fmt.Sprintf("run ended %v %q, want guest-exit-pass", halted, reason))
	case w.wallEqualsSwitches && st.WallChecks != st.WorldSwitches:
		res.fail(fmt.Sprintf("wall checks %d != world switches %d", st.WallChecks, st.WorldSwitches))
	default:
		if msg := c.checkCounts(counts); msg != "" {
			res.fail(msg)
		}
	}
	return res, nil
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
