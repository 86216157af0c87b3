package bench

import (
	"testing"
	"time"

	"govfm/internal/hart"
)

// TestSimHostInvariance runs the host-throughput sweep on one platform;
// SimHost itself fails if the caches change a single simulated cycle, so
// this doubles as the cycle-model invariance check over real workloads.
func TestSimHostInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simhost sweep is not short")
	}
	res, err := SimHost(hart.VisionFive2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(simHostCases()) {
		t.Fatalf("got %d results, want %d", len(res), len(simHostCases()))
	}
	for _, r := range res {
		if r.Instret == 0 || r.Cycles == 0 || r.HostNsOn <= 0 || r.HostNsOff <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Workload, r)
		}
		t.Logf("%-18s instret=%-9d off=%6.2f MIPS  on=%7.2f MIPS  speedup=%.2fx",
			r.Workload, r.Instret, r.MIPSOff, r.MIPSOn, r.Speedup)
	}
	t.Logf("geomean speedup: %.2fx", GeomeanSpeedup(res))
}

// BenchmarkTable4Operations measures host throughput of the two Table 4
// probe workloads (instruction emulation and the full world-switch round
// trip) with the fast paths on, reporting simulated-MIPS alongside ns/op.
// scripts/verify.sh runs it with -benchtime=1x as a compile-and-run gate.
func BenchmarkTable4Operations(b *testing.B) {
	var instret uint64
	var hostNs int64
	for i := 0; i < b.N; i++ {
		for _, c := range simHostCases()[:2] { // emulation-loop, worldswitch-loop
			m, err := c.setup(hart.VisionFive2)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			m.Run(2_000_000_000)
			hostNs += time.Since(start).Nanoseconds()
			if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
				b.Fatalf("%s: %v %q", c.name, ok, reason)
			}
			instret += m.Harts[0].Instret
		}
	}
	if hostNs > 0 {
		b.ReportMetric(float64(instret)*1e3/float64(hostNs), "mips")
		b.ReportMetric(float64(hostNs)/float64(instret), "host-ns/instr")
	}
}

// BenchmarkSchedSeq4Hart measures the sequential scheduler on four harts
// running schedScaleProg: the per-step interrupt latch, pending check and
// fetch permission that the event horizon and the page fetch verdict
// amortize. It reports simulated MIPS across all harts. scripts/verify.sh
// runs it with -benchtime=1x as a compile-and-run gate.
func BenchmarkSchedSeq4Hart(b *testing.B) {
	const steps = 500_000
	var hostNs int64
	for i := 0; i < b.N; i++ {
		m, err := schedScaleMachine(hart.VisionFive2, 4, hart.SchedSeq)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if n, halted := m.Run(steps); n != steps || halted {
			b.Fatalf("ran %d of %d steps, halted=%v", n, steps, halted)
		}
		hostNs += time.Since(start).Nanoseconds()
	}
	if hostNs > 0 {
		b.ReportMetric(float64(4*steps*b.N)*1e3/float64(hostNs), "mips")
	}
}
