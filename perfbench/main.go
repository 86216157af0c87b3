// Command perfbench is govfm's benchmark. It runs one workload in this
// process for a fixed host duration and prints the end-to-end metrics
// (untraced) or the per-layer metrics (traced) as the last line of
// standard output, in the JSON form
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload trap-storm --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh repeat -n 10 -seconds 20
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload runs one operation batch: a simulator machine built and run
// to halt, or a fleet round of fixed size.
type workload interface {
	runBatch(c *batchCtx) (*batchResult, error)
}

func lookupWorkload(name string) (workload, bool) {
	if name == "fleet" {
		return fleetWorkload{}, true
	}
	w, ok := simWorkloads[name]
	return w, ok
}

var workloadNames = []string{"trap-storm", "compute", "smp", "fleet"}

// batchCtx is what an operation batch needs from the run loop.
type batchCtx struct {
	workload string
	seed     int64
	scale    float64
	rec      *recorder  // nil when untraced
	host     *hostMeter // nil when traced
	pins     pinTable

	run *runState
}

// runState is shared by every batch of one run.
type runState struct {
	mu   sync.Mutex
	ref  []hartCount // first batch's counts, for seeds without a pin
	recs []*recorder

	profiling bool
	profBuf   bytes.Buffer
	profiles  [][]byte
	alloc0    uint64
}

// want returns the counts a run must reproduce: the pinned ones for the
// default seed at full size, else the first batch's own. The fleet's
// scale changes only how many jobs a round runs, never a job, so its pin
// holds at every scale.
func (c *batchCtx) want(got []hartCount) []hartCount {
	if c.seed == defaultSeed && (c.scale == 1 || c.workload == "fleet") {
		if p, ok := c.pins[c.workload]; ok {
			return p
		}
	}
	c.run.mu.Lock()
	defer c.run.mu.Unlock()
	if c.run.ref == nil {
		c.run.ref = append([]hartCount(nil), got...)
	}
	return c.run.ref
}

// checkCounts compares per-hart simulated counts against the expected
// ones and describes the first difference ("" when they match).
func (c *batchCtx) checkCounts(got []hartCount) string {
	want := c.want(got)
	if len(want) != len(got) {
		return fmt.Sprintf("%d harts, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("hart %d cycles/instret %d/%d, want %d/%d",
				i, got[i].Cycles, got[i].Instret, want[i].Cycles, want[i].Instret)
		}
	}
	return ""
}

// checkCycles compares hart 0's cycles only (all a fleet job reports).
func (c *batchCtx) checkCycles(cycles uint64) string {
	want := c.want([]hartCount{{Cycles: cycles}})
	if len(want) == 0 || want[0].Cycles != cycles {
		return fmt.Sprintf("cycles %d, want %v", cycles, want)
	}
	return ""
}

// startTimed and stopTimed bracket the timed section: in traced batches
// they run the CPU profile and measure allocation over exactly that span.
// stopTimed returns the MiB allocated (0 when untraced).
func (c *batchCtx) startTimed() {
	if c.rec == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.run.alloc0 = ms.TotalAlloc
	c.run.profBuf.Reset()
	if err := pprof.StartCPUProfile(&c.run.profBuf); err == nil {
		c.run.profiling = true
	}
}

func (c *batchCtx) stopTimed() float64 {
	if c.rec == nil {
		return 0
	}
	if c.run.profiling {
		pprof.StopCPUProfile()
		c.run.profiling = false
		c.addProfile(append([]byte(nil), c.run.profBuf.Bytes()...))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-c.run.alloc0) / (1 << 20)
}

// addProfile keeps a traced batch's CPU profile for the report.
func (c *batchCtx) addProfile(p []byte) {
	c.run.mu.Lock()
	defer c.run.mu.Unlock()
	c.run.profiles = append(c.run.profiles, p)
}

// addRecorders keeps span recorders of helper goroutines for the report.
func (c *batchCtx) addRecorders(recs ...*recorder) {
	c.run.mu.Lock()
	defer c.run.mu.Unlock()
	for _, r := range recs {
		if r != nil {
			c.run.recs = append(c.run.recs, r)
		}
	}
}

// batchResult is one batch's outcome.
type batchResult struct {
	setupS   float64   // host seconds before the timed section
	runS     float64   // host seconds of the timed section
	ops      int       // operations attempted
	failed   int       // operations failed
	failures []string  // descriptions of the first failures
	instret  uint64    // simulated instructions retired in the timed section
	latMs    []float64 // host latency of each operation in the timed section
	counters map[string]float64
	allocMiB float64 // MiB allocated in the timed section (traced)
	// peakRSSMiB is the peak resident set during the batch of the
	// process that did the work.
	peakRSSMiB float64
	// speed is the host's speed during the batch relative to the
	// nominal host (hostspeed.go); 0 in traced batches.
	speed float64
	// partial marks a fleet round cut short because its server died;
	// its times and memory are not measurements of a whole round.
	partial bool
}

func (r *batchResult) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	scale      float64 // workload size factor; 1 = the benchmark's size
	minBatches int     // batches run even past the duration
	outDir     string  // where traced runs write spans and profiles
	pins       pinTable
}

// run measures one workload for cfg.seconds and returns its result.
// Batches repeat until another batch of the last one's length would
// overrun the duration. Traced runs alternate untraced and traced batches,
// so the tracing overhead is measured under the same conditions.
func run(cfg config) (*result, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	t0 := time.Now()
	rs := &runState{}
	var plain, traced []*batchResult
	attempted, failed := 0, 0
	var failures []string
	for i := 0; ; i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		batchStart := time.Now()
		c := &batchCtx{workload: cfg.workload, seed: cfg.seed, scale: cfg.scale, pins: cfg.pins, run: rs}
		if cfg.trace && i%2 == 1 {
			c.rec = newRecorder(t0)
			c.rec.setOp(i)
		} else {
			c.host = &hostMeter{}
		}
		sampleHost(c.host)
		res, err := w.runBatch(c)
		if err != nil {
			return nil, err
		}
		sampleHost(c.host)
		res.speed = c.host.speed()
		if res.peakRSSMiB == 0 {
			res.peakRSSMiB = peakRSSMiB()
		}
		attempted += res.ops
		failed += res.failed
		if len(failures) < 10 {
			failures = append(failures, res.failures...)
		}
		switch {
		case res.partial:
		case c.rec != nil:
			c.addRecorders(c.rec)
			traced = append(traced, res)
		default:
			plain = append(plain, res)
		}
		batch := time.Since(batchStart).Seconds()
		if i+1 >= cfg.minBatches && time.Since(t0).Seconds()+batch > cfg.seconds {
			break
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	out := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("%s seed=%d batches=%d+%d attempted=%d failed=%d fail_pct=%.3f\n",
		cfg.workload, cfg.seed, len(plain), len(traced), attempted, failed, 100*float64(failed)/float64(attempted))
	if !cfg.trace {
		endToEnd(out.Metrics, plain)
	} else {
		if err := perLayer(out.Metrics, plain, traced, rs, cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// endToEnd fills the user-visible metrics from untraced batches. Host
// times are scaled to the nominal host by each batch's measured speed
// (hostspeed.go); the raw figures are printed before the result line.
func endToEnd(m map[string]metric, batches []*batchResult) {
	var mips, setup, rss, jps, lat, raw, speed []float64
	for i, b := range batches {
		s := b.speed
		fmt.Printf("batch %d: %.3f s timed, host speed %.4f, raw mips %.4f, scaled mips %.4f\n",
			i, b.runS, s, float64(b.instret)/b.runS/1e6, float64(b.instret)/(b.runS*s)/1e6)
		rss = append(rss, b.peakRSSMiB)
		raw = append(raw, float64(b.instret)/b.runS/1e6)
		speed = append(speed, s)
		mips = append(mips, float64(b.instret)/(b.runS*s)/1e6)
		setup = append(setup, b.setupS*s)
		jps = append(jps, float64(len(b.latMs))/(b.runS*s))
		for _, l := range b.latMs {
			lat = append(lat, l*s)
		}
	}
	fmt.Printf("host speed %.4f of nominal (median over batches); raw mips %.4f\n", median(speed), median(raw))
	m["mips"] = metric{median(mips), "MIPS"}
	m["setup_s"] = metric{median(setup), "s"}
	m["peak_rss_mib"] = metric{median(rss), "MiB"}
	m["jobs_per_s"] = metric{median(jps), "1/s"}
	m["job_p50_ms"] = metric{median(lat), "ms"}
}

// perLayerCounters are the per-operation simulator and monitor counts.
var perLayerCounters = []struct{ name, unit string }{
	{"pmp.epoch_bumps", "count"},
	{"core.world_switches", "count"},
	{"core.emulations", "count"},
	{"core.wall_checks", "count"},
	{"core.virt_interrupts", "count"},
	{"hart.sb.guard_misses", "count"},
	{"hart.sb.translations", "count"},
	{"hart.sb.aborts", "count"},
	{"hart.decode.hit_pct", "%"},
	{"hart.sb.retired_pct", "%"},
	{"vfmd.jobs_retained", "count"},
}

// setupSpans are the set-up phases timed on one workload kind or the
// other; the phases a workload does not have read 0.
var setupSpans = []string{
	"setup.images", "setup.machine", "setup.boot",
	"setup.server", "setup.origin", "setup.snapshot", "setup.reference",
}

// perLayer fills the layer metrics from traced batches, plus the tracing
// overhead against the untraced batches of the same run.
func perLayer(m map[string]metric, plain, traced []*batchResult, rs *runState, cfg config) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := writeSpans(stem+"-spans.json", rs.recs...); err != nil {
		return err
	}
	var files []string
	for i, p := range rs.profiles {
		f := fmt.Sprintf("%s-cpu%d.pprof", stem, i)
		if err := os.WriteFile(f, p, 0o644); err != nil {
			return err
		}
		files = append(files, f)
	}
	ls := layerSamples{}
	if len(files) > 0 {
		prof, err := readProfiles(files...)
		if err != nil {
			return err
		}
		ls.add(prof)
	}
	for _, l := range layers {
		name := l + ".self_pct"
		if l == "other" {
			name = "profile.other_pct"
		} else if l == "runtime.gc" {
			name = "runtime.gc_self_pct"
		}
		m[name] = metric{ls.pct(l), "%"}
	}
	m["profile.cpu_ms"] = metric{ls.total(), "ms"}
	for _, ct := range perLayerCounters {
		var vs []float64
		for _, b := range traced {
			vs = append(vs, b.counters[ct.name])
		}
		m[ct.name] = metric{median(vs), ct.unit}
	}
	var alloc []float64
	for _, b := range traced {
		alloc = append(alloc, b.allocMiB/float64(len(b.latMs)))
	}
	m["runtime.alloc_mib_per_op"] = metric{median(alloc), "MiB"}

	d := spanDurations(rs.recs...)
	for _, s := range setupSpans {
		m[s+"_ms"] = metric{median(d[s]), "ms"}
	}
	m["vfmd.spawn_ms_p50"] = metric{median(d["client.Spawn"]), "ms"}
	m["vfmd.run_ms_p50"] = metric{median(d["vfmd.run"]), "ms"}
	m["vfmd.delete_ms_p50"] = metric{median(d["client.DeleteMachine"]), "ms"}

	perOp := func(bs []*batchResult) float64 {
		var xs []float64
		for _, b := range bs {
			xs = append(xs, b.runS/float64(len(b.latMs)))
		}
		return median(xs)
	}
	overhead := 0.0
	if base := perOp(plain); base > 0 && len(traced) > 0 {
		overhead = 100 * (perOp(traced)/base - 1)
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	return nil
}

// resetPeakRSS resets the process's peak resident set (VmHWM) to its
// current resident set, so each batch's peak is read on its own; the
// freed memory of earlier batches has been returned to the OS by then.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak covers the whole run
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func main() {
	if os.Getenv(fleetServerEnv) != "" {
		os.Exit(serveFleet(nil))
	}
	if len(os.Args) > 1 && os.Args[1] == "repeat" {
		os.Exit(repeatMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{scale: 1, minBatches: 2, pins: pins, outDir: ".bench_build/perfbench-out"}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "seed for the workload's generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "host seconds to measure")
	traceN := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceN != 0 && *traceN != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *traceN == 1
	if cfg.trace {
		cfg.minBatches = 4
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
