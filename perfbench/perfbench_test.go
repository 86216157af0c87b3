package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// crashEnv makes a fleet server started by the tests exit abruptly on
// its first spawn request, as a server that panics does.
const crashEnv = "PERFBENCH_TEST_CRASH_ON_SPAWN"

// The fleet workload starts this test binary again as its server.
func TestMain(m *testing.M) {
	if os.Getenv(fleetServerEnv) != "" {
		var wrap func(http.Handler) http.Handler
		if os.Getenv(crashEnv) != "" {
			wrap = func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasSuffix(r.URL.Path, "/spawn") {
						os.Exit(3)
					}
					h.ServeHTTP(w, r)
				})
			}
		}
		os.Exit(serveFleet(wrap))
	}
	os.Exit(m.Run())
}

// tinyScale shrinks every simulator workload to a few thousand
// instructions and the fleet to one job per round.
const tinyScale = 0.002

func tinyRun(t *testing.T, workload string, seed int64, trace bool, p pinTable) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, seconds: 0, trace: trace,
		scale: tinyScale, minBatches: 4, pins: p, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func readBenchmark(t *testing.T) (e2e, layer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

// Every workload completes at tiny size, passes its output checks at the
// default seed and another one, and reports every metric BENCHMARK.json
// names, untraced and traced.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layer := readBenchmark(t)
	for _, w := range workloadNames {
		for _, seed := range []int64{defaultSeed, 7} {
			res := tinyRun(t, w, seed, false, pins)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s seed %d: correct=%v failed=%d attempted=%d", w, seed, res.Correct, res.Failed, res.Attempted)
			}
			for _, name := range e2e {
				if v, ok := res.Metrics[name]; !ok || v.Value <= 0 || math.IsNaN(v.Value) {
					t.Errorf("%s seed %d: end-to-end metric %s = %+v", w, seed, name, v)
				}
			}
			if len(res.Metrics) != len(e2e) {
				t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json names %d", w, len(res.Metrics), len(e2e))
			}
		}
		res := tinyRun(t, w, defaultSeed, true, pins)
		if !res.Correct {
			t.Fatalf("%s traced: failed=%d", w, res.Failed)
		}
		for _, name := range layer {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s traced: per-layer metric %s missing", w, name)
			}
		}
		if len(res.Metrics) != len(layer) {
			t.Errorf("%s traced: %d metrics, BENCHMARK.json names %d per-layer", w, len(res.Metrics), len(layer))
		}
	}
}

// The pinned counts are the ones the simulator produces, and a wrong pin
// is reported as a failed operation.
func TestWrongPinFails(t *testing.T) {
	for name, want := range pins {
		c := &batchCtx{workload: name, seed: defaultSeed, scale: 1, pins: pins, run: &runState{}}
		if msg := c.checkCounts(want); msg != "" {
			t.Errorf("%s: pinned counts rejected: %s", name, msg)
		}
		wrong := pinTable{name: append([]hartCount(nil), want...)}
		wrong[name][0].Cycles++
		c.pins = wrong
		if msg := c.checkCounts(want); msg == "" {
			t.Errorf("%s: wrong pin not reported", name)
		}
	}
	// End to end: the fleet pin applies at every scale.
	wrong := pinTable{"fleet": {{pins["fleet"][0].Cycles + 1, pins["fleet"][0].Instret}}}
	res := tinyRun(t, "fleet", defaultSeed, false, wrong)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("fleet with a wrong pin: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// A fleet server that dies fails the jobs it had not served; the run
// goes on with a fresh server each round. Each tiny round is the origin's
// reference run, which passes, and one job, which fails.
func TestFleetServerCrashFails(t *testing.T) {
	t.Setenv(crashEnv, "1")
	res := tinyRun(t, "fleet", defaultSeed, false, pins)
	if res.Correct || res.Attempted < 8 || 2*res.Failed != res.Attempted {
		t.Fatalf("crashing fleet server: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// The profile grouping reaches every layer plus other.
func TestSampleLayers(t *testing.T) {
	cases := map[string][]string{
		"pmp":        {"govfm/internal/pmp.(*File).Check"},
		"core.wall":  {"govfm/internal/core.(*Monitor).checkWallAfterSwitch", "govfm/internal/core.(*Monitor).switchWorld"},
		"core":       {"govfm/internal/core.(*Monitor).handleTrap"},
		"hart.sched": {"govfm/internal/hart.(*Machine).stepSeq.func1", "govfm/internal/hart.(*Machine).Run"},
		"hart.sb":    {"govfm/internal/hart.(*Hart).sbCompile.func7", "govfm/internal/hart.(*Hart).runBlock"},
		"hart.exec":  {"govfm/internal/hart.(*Hart).exec", "govfm/internal/hart.(*Hart).Step"},
		"dev":        {"govfm/internal/dev/plic.(*Plic).Pending"},
		"mmu":        {"govfm/internal/mmu.Walk"},
		"mem":        {"runtime.memmove", "govfm/internal/mem.(*Bus).Load"},
		"obs":        {"runtime.memclrNoHeapPointers", "runtime.mallocgc", "govfm/internal/obs.NewTracer"},
		"vfmd":       {"syscall.Syscall", "net/http.(*persistConn).readLoop"},
		"runtime.gc": {"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		"other":      {"runtime.futex", "runtime.mcall"},
	}
	for _, l := range layers {
		st, ok := cases[l]
		if !ok {
			t.Errorf("no case for layer %s", l)
			continue
		}
		if got := sampleLayer(st); got != l {
			t.Errorf("stack %v: layer %s, want %s", st, got, l)
		}
	}
	if got := sampleLayer([]string{"runtime.mallocgc", "main.fleetJob"}); got != "other" {
		t.Errorf("harness allocation: layer %s, want other", got)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// A real runtime/pprof CPU profile reads back through go tool pprof, two
// copies merged into one.
func TestReadProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(f, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	one, err := readProfiles(f)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin float64
	for i, st := range one.stacks {
		total += one.ms[i]
		if len(st) > 0 && strings.HasPrefix(st[0], "govfm/perfbench.spin") {
			inSpin += one.ms[i]
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("%.0f ms sampled, %.0f ms with spin as leaf", total, inSpin)
	}
	two, err := readProfiles(f, f)
	if err != nil {
		t.Fatal(err)
	}
	var merged float64
	for _, ms := range two.ms {
		merged += ms
	}
	if merged != 2*total {
		t.Fatalf("two copies merged to %.0f ms, want %.0f", merged, 2*total)
	}
}

// parseTraces reads inlined frames, multi-frame stacks and seconds-scale
// values written in milliseconds.
func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1.20s, Total samples = 1030ms (85.83%)
-----------+-------------------------------------------------------
    1020ms   govfm/internal/hart.(*Hart).exec
             govfm/internal/hart.(*Hart).Step (inline)
             govfm/internal/hart.(*Machine).Run
-----------+-------------------------------------------------------
      10ms   runtime.futex
-----------+-------------------------------------------------------
`
	p, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) != 2 || p.ms[0] != 1020 || p.ms[1] != 10 {
		t.Fatalf("parsed %v %v", p.stacks, p.ms)
	}
	if got := p.stacks[0][1]; got != "govfm/internal/hart.(*Hart).Step" {
		t.Errorf("inlined frame read as %q", got)
	}
	if _, err := parseTraces("-----------+---\n  10s   main.f\n"); err == nil {
		t.Error("a value not in ms was accepted")
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// Running a machine in chunks, with reference slices between them,
// leaves its simulated counts exactly as one uninterrupted run does.
func TestChunkedRunExact(t *testing.T) {
	for _, name := range []string{"trap-storm", "compute", "smp"} {
		var counts [2][]hartCount
		for i, chunk := range []uint64{maxRunSteps, 997} {
			w := *simWorkloads[name]
			w.chunkSteps = chunk
			rs := &runState{}
			c := &batchCtx{workload: name, seed: defaultSeed, scale: 0.01, pins: pins, run: rs}
			res, err := w.runBatch(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%s chunk %d: %v", name, chunk, res.failures)
			}
			counts[i] = rs.ref
		}
		if len(counts[0]) == 0 || fmt.Sprint(counts[0]) != fmt.Sprint(counts[1]) {
			t.Errorf("%s: chunked run ended %v, whole run %v", name, counts[1], counts[0])
		}
	}
}

// A nil meter measures nothing; a sampled one reads a positive speed.
// Host times are scaled by the batch's speed: a batch on a host at half
// the nominal speed reports twice its raw MIPS and half its raw times.
func TestHostScaling(t *testing.T) {
	var none *hostMeter
	none.sample()
	if s := none.speed(); s != 0 {
		t.Errorf("nil meter speed %v", s)
	}
	h := &hostMeter{}
	sampleHost(h)
	if s := h.speed(); s <= 0 || math.IsInf(s, 0) {
		t.Errorf("sampled meter speed %v", s)
	}
	m := map[string]metric{}
	endToEnd(m, []*batchResult{{setupS: 0.2, runS: 2, instret: 10e6, latMs: []float64{2000}, speed: 0.5}})
	want := map[string]float64{"mips": 10, "setup_s": 0.1, "jobs_per_s": 1, "job_p50_ms": 1000}
	for k, v := range want {
		if math.Abs(m[k].Value-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k].Value, v)
		}
	}
}
