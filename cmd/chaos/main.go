// Command chaos runs the fault-injection campaign: seeded, deterministic
// faults (bit flips, spurious/lost interrupts, rogue-firmware behaviors,
// MMIO errors) injected into monitored systems across every firmware ×
// policy × platform combination, asserting the monitor's crash containment
// contract — after every fault the guest resumes forward progress, or the
// machine stops with a structured MonitorFault on record.
//
// Usage:
//
//	go run ./cmd/chaos -smoke              # fixed-seed CI gate (~2s)
//	go run ./cmd/chaos -faults 50 -seed 7  # longer campaign, chosen seed
//	go run ./cmd/chaos -profile vf2        # one platform only
//	go run ./cmd/chaos -smoke -metrics-out chaos.json  # detection metrics
//
// With -tee the injector draws only from the TEE fault deck — forged
// confidential-compute lifecycle hypercalls and probes at the Dorami
// monitor wall — and after every fault the campaign additionally asserts
// the confidential-compute invariants: the locked-PMP wall holds on every
// hart, the ACE lifecycle FSM is structurally consistent, and the
// monitor's protected state fingerprint never changes:
//
//	go run ./cmd/chaos -tee -smoke          # TEE CI gate, all three policies
//	go run ./cmd/chaos -tee -faults 50      # longer TEE campaign
//
// With -fleet the campaign attacks the vfmd control plane itself instead
// of a machine: worker panics, stuck/slow jobs, dropped and duplicated
// requests, mid-job machine kills — asserting the fleet's supervision
// invariants (service never crashes, every job terminal, no lock leaked,
// quarantined machines respawned within cap):
//
//	go run ./cmd/chaos -fleet -smoke                        # >=120-fault CI gate
//	go run ./cmd/chaos -fleet -faults 500 -seed 9 -v        # longer, narrated
//	go run ./cmd/chaos -fleet -smoke -fleet-report out.json # full report JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"govfm/internal/inject"
	"govfm/internal/obs"
	"govfm/internal/vfmd"
)

var profileAlias = map[string][]string{
	"vf2":  {"visionfive2"},
	"p550": {"p550"},
	"all":  {"visionfive2", "p550"},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		seed    = flag.Int64("seed", 1, "campaign seed")
		faults  = flag.Int("faults", 12, "faults injected per combination")
		smoke   = flag.Bool("smoke", false, "fixed-seed smoke campaign: every firmware x policy x platform, used as a CI gate")
		profile = flag.String("profile", "all", "platform profile: vf2, p550, or all")
		budget  = flag.Uint64("budget", 0, "watchdog cycle budget (0 = default)")
		tee     = flag.Bool("tee", false, "restrict injection to the TEE fault deck and assert the confidential-compute invariants (wall, ACE FSM, monitor-state fingerprint) after every fault")

		metricsOut  = flag.String("metrics-out", "", "write campaign detection metrics (JSON) to this file")
		metricsDump = flag.Bool("metrics", false, "print campaign detection metrics on exit")
		traceOut    = flag.String("trace-out", "", "write injection instants as Chrome trace_event JSON to this file")
		server      = flag.String("server", "", "run the campaign through a vfmd fleet server at this base URL (e.g. http://127.0.0.1:9400) instead of in-process; combo rebuilds spawn from shared post-warmup snapshots")

		fleet       = flag.Bool("fleet", false, "attack the vfmd control plane (fleet chaos) instead of a machine")
		fleetReport = flag.String("fleet-report", "", "write the fleet chaos report (JSON) to this file")
		verbose     = flag.Bool("v", false, "narrate each injected fault")
	)
	flag.Parse()

	if *fleet {
		return runFleetChaos(*seed, *faults, *smoke, *verbose, *fleetReport)
	}

	profiles, ok := profileAlias[*profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "chaos: unknown profile %q (want vf2, p550, or all)\n", *profile)
		return 2
	}
	if *smoke {
		*seed = 1
		*faults = 12
		profiles = profileAlias["all"]
	}

	if *server != "" {
		return runServer(*server, profiles, *seed, *faults)
	}

	var ob *obs.Observer
	if *metricsOut != "" || *metricsDump || *traceOut != "" {
		ob = obs.New(obs.Options{})
	}

	start := time.Now()
	rep, err := inject.RunCampaign(inject.CampaignConfig{
		Seed:           *seed,
		Platforms:      profiles,
		FaultsPerCombo: *faults,
		WatchdogBudget: *budget,
		Obs:            ob,
		TEE:            *tee,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 2
	}
	fmt.Print(rep.Format())
	if ob != nil {
		// Surface the campaign's detection metrics into the registry: the
		// Report already aggregates across every combo and rebuild.
		ob.Metrics.Collect(func(emit func(name string, value uint64)) {
			emit("chaos.injected", uint64(rep.TotalInjected))
			emit("chaos.detected", uint64(rep.TotalReported))
			emit("chaos.contained", uint64(rep.TotalContained))
			emit("chaos.failures", uint64(rep.TotalFailures))
			for k := inject.Kind(0); int(k) < inject.NumKinds; k++ {
				if n := rep.ByKind[k]; n > 0 {
					emit("chaos.inject."+k.String(), uint64(n))
				}
			}
		})
		if *metricsDump {
			fmt.Printf("metrics:\n%s", ob.Metrics.Dump())
		}
		if *metricsOut != "" {
			if err := ob.WriteMetricsFile(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			}
		}
		if *traceOut != "" {
			if err := ob.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			}
		}
	}
	if *tee {
		var checks, probes uint64
		for _, r := range rep.Results {
			checks += r.WallChecks
			probes += r.WallProbes
		}
		fmt.Printf("wall: %d checks, %d full probes\n", checks, probes)
	}
	fmt.Printf("campaign: %d combos in %.1fs\n", len(rep.Results), time.Since(start).Seconds())
	for _, r := range rep.Results {
		for _, f := range r.Failures {
			fmt.Printf("FAILURE %s/%s/%s: %s\n", r.Platform, r.Firmware, r.Policy, f)
		}
		if !r.HashIntact {
			fmt.Printf("FAILURE %s/%s/%s: sandbox integrity hash changed\n",
				r.Platform, r.Firmware, r.Policy)
		}
	}
	for _, r := range rep.Results {
		if len(r.Failures) > 0 || !r.HashIntact {
			return 1
		}
	}
	return 0
}

// runFleetChaos drives the control-plane chaos campaign: an in-process
// vfmd service under seeded fault fire, with the supervision invariants
// checked at the end. The smoke configuration (>=120 faults, fixed seed)
// is the tier-2 CI gate.
func runFleetChaos(seed int64, faults int, smoke, verbose bool, reportPath string) int {
	cfg := vfmd.FleetChaosConfig{Seed: seed, Faults: faults}
	if smoke {
		cfg.Seed = 1
		cfg.Faults = 120
	}
	if verbose {
		cfg.Verbose = func(s string) { fmt.Println(s) }
	}
	t0 := time.Now()
	rep, err := vfmd.RunFleetChaos(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: fleet: %v\n", err)
		return 2
	}
	if reportPath != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if werr := os.WriteFile(reportPath, append(b, '\n'), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "chaos: fleet report: %v\n", werr)
		}
	}
	fmt.Printf("fleet chaos: %d faults in %.1fs (seed %d)\n", rep.Faults, time.Since(t0).Seconds(), cfg.Seed)
	for kind, n := range rep.PerKind {
		fmt.Printf("  %-13s %d\n", kind, n)
	}
	fmt.Printf("jobs: %d accepted, %d terminal; quarantines: %d (%d respawned, %d replaced)\n",
		rep.Jobs, rep.Terminal, rep.Quarantines, rep.Respawns, rep.Replacements)
	fmt.Printf("transport: %d responses dropped, %d requests duplicated; client: %d retries, %d dropped calls\n",
		rep.DroppedResps, rep.DupedReqs, rep.ClientRetries, rep.ClientDropped)
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Printf("FAILURE: %s\n", f)
		}
		return 1
	}
	fmt.Println("all supervision invariants held: service alive, every job terminal, no lock leaked, respawns within cap")
	return 0
}

// runServer runs the campaign through a vfmd fleet server: the server
// boots each combo once and spawns every rebuild from the post-warmup
// COW snapshot instead of re-simulating the boot.
func runServer(base string, profiles []string, seed int64, faults int) int {
	c := vfmd.NewClient(base)
	t0 := time.Now()
	j, err := c.Campaign(vfmd.CampaignSpec{
		Kind:           "chaos",
		Profiles:       profiles,
		Seed:           seed,
		FaultsPerCombo: faults,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: server: %v\n", err)
		return 2
	}
	fmt.Printf("campaign job %s queued on %s\n", j.ID, base)
	j, err = c.WaitJob(j.ID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: server: %v\n", err)
		return 2
	}
	res, err := vfmd.CampaignResultOf(j)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: server: %v\n", err)
		return 2
	}
	for _, line := range res.Lines {
		fmt.Println(line)
	}
	fmt.Printf("server campaign (chaos): %d shard(s), %d faults injected, %d failure(s) in %.1fs\n",
		res.Shards, res.Cases, res.Findings, time.Since(t0).Seconds())
	if res.Findings > 0 {
		return 1
	}
	return 0
}
