// Command fuzzdiff runs the differential lockstep fuzzer: randomized RV64
// machine states and instruction streams executed simultaneously on a bare
// simulated hart and a monitor-virtualized hart, with both checked against
// the architectural reference model after every retired instruction. Any
// disagreement is a finding; findings are minimized and written out as
// self-contained reproducer test files.
//
// With -inject N the same generator feeds the fault-injection engine
// instead of the lockstep comparator: N randomized cases run with
// containment armed while faults are injected, and the robustness contract
// (no escaped panics, every monitor halt leaves a fault record) is
// checked.
//
// With -equiv N it runs the equivalence gate for the host-side mechanisms
// that must not change a machine's end state: N machine cases per profile
// swept across execution tiers, schedulers and forks, and N monitored
// lockstep cases run with host caches on and off, every end state compared
// field by field with hart.DiffImages.
//
// Usage:
//
//	go run ./cmd/fuzzdiff -smoke                 # fixed-seed CI gate
//	go run ./cmd/fuzzdiff -budget 1000000        # long fuzzing run
//	go run ./cmd/fuzzdiff -profile vf2 -seed 7   # one profile, chosen seed
//	go run ./cmd/fuzzdiff -inject 50             # fault-injection mode
//	go run ./cmd/fuzzdiff -equiv 1000            # tier/scheduler/fork equivalence gate
//	go run ./cmd/fuzzdiff -hext -smoke           # hypervisor-extension lockstep gate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"govfm/internal/verif/fuzz"
)

var profileAlias = map[string][]string{
	"vf2":  {"visionfive2"},
	"p550": {"p550"},
	"all":  {"visionfive2", "p550"},
}

// equivProfiles is what -equiv sweeps under -profile all: the two boards,
// plus rva23, the one profile with Sstc, so the stimecmp paths of the
// pending check, the superblock headroom and WFI batching are compared too.
var equivProfiles = []string{"visionfive2", "p550", "rva23"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program; it returns the process exit code so tests can
// drive it directly. 0 = clean, 1 = findings or injection failures,
// 2 = usage/setup error. The exit code is derived from the raw finding
// count, not the minimized list — minimization caps and failures must
// never turn a red run green.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("fuzzdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		seed     = fs.Int64("seed", 1, "fuzzer seed")
		budget   = fs.Int("budget", 200_000, "total lockstep steps per profile")
		smoke    = fs.Bool("smoke", false, "fixed-seed smoke run: 100k+ steps across both profiles, used as a CI gate")
		profile  = fs.String("profile", "all", "platform profile: vf2, p550, or all (with -equiv, all adds rva23)")
		repros   = fs.String("repros", "internal/verif/fuzz/testdata/repros", "directory for minimized reproducer files")
		injectN  = fs.Int("inject", 0, "fault-injection mode: run N randomized cases with containment armed instead of lockstep fuzzing")
		fastpath = fs.String("fastpath", "on", "host acceleration caches for lockstep fuzzing: on or off")
		equivN   = fs.Int("equiv", 0, "equivalence mode: N cases per profile swept across {interp, caches, superblocks} × {seq, par(q)} × {cold, fork}, plus N monitored lockstep cases with host caches on and off, every end state compared with hart.DiffImages")
		hext     = fs.Bool("hext", false, "hypervisor-extension mode: H-biased lockstep fuzzing on the H-capable profiles (guest V-states, hfence, VS CSRs)")
		hextN    = fs.Int("hext-cases", 500, "cases per profile in -hext mode")
		teeN     = fs.Int("tee", 0, "TEE lifecycle mode: run N shadow-model fuzz cases per profile over the ACE confidential-compute FSM instead of lockstep fuzzing")
		server   = fs.String("server", "", "run the fuzz campaign through a vfmd fleet server at this base URL (e.g. http://127.0.0.1:9400) instead of in-process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	profiles, ok := profileAlias[*profile]
	if !ok {
		fmt.Fprintf(errw, "fuzzdiff: unknown profile %q (want vf2, p550, or all)\n", *profile)
		return 2
	}
	if *smoke {
		*seed = 1
		*budget = 60_000 // per profile; ≥100k total across both
		profiles = profileAlias["all"]
	}

	if *hext {
		if *profile == "all" {
			profiles = []string{"p550"} // the H-capable profile
		}
		return runHext(profiles, *seed, *hextN, *repros, out, errw)
	}

	if *teeN > 0 {
		return runTEE(profiles, *seed, *teeN, out, errw)
	}

	if *equivN > 0 {
		if *profile == "all" {
			profiles = equivProfiles
		}
		return runEquiv(profiles, *seed, *equivN, out, errw)
	}

	if *server != "" {
		return runServerCampaign(*server, "fuzz", profiles, *seed, *budget, out, errw)
	}

	if *injectN > 0 {
		return runInject(profiles, *seed, *injectN, out, errw)
	}

	switch *fastpath {
	case "on", "off":
		fuzz.DefaultFastPath = *fastpath == "on"
	default:
		fmt.Fprintf(errw, "fuzzdiff: unknown -fastpath %q (want on or off)\n", *fastpath)
		return 2
	}

	rawFindings := 0
	totalSteps := 0
	start := time.Now()
	for i, p := range profiles {
		f, err := fuzz.NewFuzzer([]string{p}, *seed+int64(i))
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
			return 2
		}
		t0 := time.Now()
		findings := f.RunBudget(*budget, 5)
		dt := time.Since(t0)
		fmt.Fprintf(out, "%-12s seed=%d cases=%d steps=%d coverage=%d corpus=%d findings=%d (%.1fs, %.0f steps/s)\n",
			p, *seed+int64(i), f.Cases, f.Steps, f.Coverage(), f.CorpusSize(0),
			len(findings), dt.Seconds(), float64(f.Steps)/dt.Seconds())
		totalSteps += f.Steps
		rawFindings += len(f.Findings)
		writeRepros(p, findings, *repros, out, errw)
	}
	fmt.Fprintf(out, "total: %d lockstep steps across %d profile(s) in %.1fs, %d divergence(s)\n",
		totalSteps, len(profiles), time.Since(start).Seconds(), rawFindings)
	if rawFindings > 0 {
		return 1
	}
	return 0
}

// writeRepros prints each minimized finding of profile p and writes its
// reproducer file into dir.
func writeRepros(p string, findings []*fuzz.Finding, dir string, out, errw io.Writer) {
	for _, fd := range findings {
		fmt.Fprintf(out, "\n=== DIVERGENCE (%s) ===\n%s\n", p, fd)
		path, err := fuzz.WriteRepro(dir, fd)
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: writing reproducer: %v\n", err)
			continue
		}
		fmt.Fprintf(out, "minimized reproducer written to %s\n", path)
	}
}

// runHext drives the hypervisor-extension mode: the same three-way
// lockstep comparison as the default mode, but case-denominated and with
// the generator biased toward the H surface — guest (V=1) starting
// states, hfence, VS CSR traffic, dense hedeleg/hvip delegation. Any
// architectural or cycle-count divergence between the native hart, the
// monitor-virtualized hart, and the reference model is a finding.
func runHext(profiles []string, seed int64, cases int, repros string, out, errw io.Writer) int {
	rawFindings := 0
	start := time.Now()
	for i, p := range profiles {
		f, err := fuzz.NewFuzzer([]string{p}, seed+int64(i))
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
			return 2
		}
		if !f.Engines[0].VirtCfg.HasH {
			fmt.Fprintf(errw, "fuzzdiff: profile %q has no hypervisor extension (use -profile p550)\n", p)
			return 2
		}
		f.Engines[0].HextBias = true
		t0 := time.Now()
		findings := f.RunCases(cases, 5)
		dt := time.Since(t0)
		fmt.Fprintf(out, "%-12s hext: seed=%d cases=%d guest-cases=%d steps=%d coverage=%d findings=%d (%.1fs)\n",
			p, seed+int64(i), f.Cases, f.GuestCases, f.Steps, f.Coverage(), len(findings), dt.Seconds())
		rawFindings += len(f.Findings)
		writeRepros(p, findings, repros, out, errw)
	}
	fmt.Fprintf(out, "hext: %d divergence(s) across %d profile(s) in %.1fs\n",
		rawFindings, len(profiles), time.Since(start).Seconds())
	if rawFindings > 0 {
		return 1
	}
	return 0
}

// runTEE drives the TEE lifecycle mode: seeded random operation sequences
// over the ACE confidential-compute FSM, each checked against an
// independent shadow model, the policy's structural invariants, and the
// Dorami monitor wall after every operation.
func runTEE(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	t0 := time.Now()
	rep, err := fuzz.RunTEE(profiles, seed, cases)
	if err != nil {
		fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "tee: %d cases, %d lifecycle ops, %d violations rejected, %d heavy switches, %d failure(s) across %d profile(s) in %.1fs\n",
		rep.Cases, rep.Ops, rep.Violations, rep.HeavySwitches, len(rep.Failures),
		len(profiles), time.Since(t0).Seconds())
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "  FAIL %s\n", f)
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	if rep.Violations == 0 || rep.HeavySwitches == 0 {
		// A TEE sweep that never tripped a guard or crossed the boundary
		// exercised nothing; refuse to count it as a pass.
		fmt.Fprintf(errw, "fuzzdiff: tee sweep exercised no guards (violations=%d, heavy switches=%d)\n",
			rep.Violations, rep.HeavySwitches)
		return 2
	}
	return 0
}

// runInject drives the fault-injection mode across the chosen profiles.
func runInject(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	failed := false
	for i, p := range profiles {
		rep, err := fuzz.RunInjection(p, seed+int64(i), cases)
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "%-12s inject: cases=%d steps=%d faults-injected=%d monitor-halts=%d fault-records=%d failures=%d\n",
			p, rep.Cases, rep.Steps, rep.Injected, rep.Halts, rep.Faults, len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Fprintf(out, "  FAIL %s\n", f)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runEquiv drives the equivalence mode. Per profile it runs the machine
// sweep — every case on every execution tier cold and on one tier forked,
// under both schedulers, each end state diffed against the interpreter's
// cold run — and the monitored arm, lockstep cases with host caches on and
// off. It prints how many runs each tier × sched × fork cell compared.
func runEquiv(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	start := time.Now()
	divergences := 0
	for i, p := range profiles {
		t0 := time.Now()
		ms, err := fuzz.RunMachineEquivalence([]string{p}, seed+int64(i), cases)
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "%-12s machine: %d cases, %d comparisons, %d steps, %d sb-retired, %d fork pages, %d divergence(s) (%.1fs)\n",
			p, ms.Cases, ms.Runs, ms.Steps, ms.SBRetired, ms.ForkPages, len(ms.Mismatches), time.Since(t0).Seconds())
		cells := make([]string, 0, len(ms.Cells))
		for c := range ms.Cells {
			cells = append(cells, c)
		}
		sort.Strings(cells)
		for _, c := range cells {
			fmt.Fprintf(out, "  %-32s %6d runs\n", c, ms.Cells[c])
		}

		t0 = time.Now()
		es, err := fuzz.RunEquivalence([]string{p}, seed+int64(i), cases)
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "%-12s monitored caches on/off: %d cases, %d lockstep steps, %d divergence(s) (%.1fs)\n",
			p, es.Cases, es.Steps, len(es.Mismatches), time.Since(t0).Seconds())
		for _, m := range append(ms.Mismatches, es.Mismatches...) {
			fmt.Fprintf(out, "  DIVERGENCE %s\n", m)
		}
		divergences += len(ms.Mismatches) + len(es.Mismatches)
	}
	fmt.Fprintf(out, "equiv: %d divergence(s) across %d profile(s) in %.1fs\n",
		divergences, len(profiles), time.Since(start).Seconds())
	if divergences > 0 {
		return 1
	}
	return 0
}
