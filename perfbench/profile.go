package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// Reading runtime/pprof CPU profiles through `go tool pprof -traces`
// and grouping their samples into the simulator's layers.

// cpuProfile is a read profile: one stack of function names per sample,
// leaf first, with its CPU time in milliseconds.
type cpuProfile struct {
	stacks [][]string
	ms     []float64
}

// readProfiles merges the profile files into one with
// `go tool pprof -traces` and parses its stacks.
func readProfiles(paths ...string) (*cpuProfile, error) {
	args := append([]string{"tool", "pprof", "-traces", "-unit=ms"}, paths...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(string(out))
}

// parseTraces reads pprof's -traces listing: a header, then one block
// per stack, each opened by a "-----------+---" rule. A block's first
// line holds the value and the leaf function, the lines after it the
// callers.
func parseTraces(out string) (*cpuProfile, error) {
	p := &cpuProfile{}
	in := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			in = true
			p.stacks = append(p.stacks, nil)
			p.ms = append(p.ms, 0)
			continue
		}
		f := strings.TrimSpace(line)
		if !in || f == "" {
			continue
		}
		i := len(p.stacks) - 1
		if p.stacks[i] == nil {
			v, fn, ok := strings.Cut(f, " ")
			ms, err := strconv.ParseFloat(strings.TrimSuffix(v, "ms"), 64)
			if !ok || err != nil || !strings.HasSuffix(v, "ms") {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			p.ms[i], f = ms, strings.TrimSpace(fn)
		}
		p.stacks[i] = append(p.stacks[i], strings.TrimSuffix(f, " (inline)"))
	}
	// The listing ends with a closing rule, which opens no stack.
	if n := len(p.stacks); n > 0 && p.stacks[n-1] == nil {
		p.stacks, p.ms = p.stacks[:n-1], p.ms[:n-1]
	}
	return p, nil
}

// layers lists the profile groups in report order; "other" is whatever
// no rule claims.
var layers = []string{
	"pmp", "core.wall", "core", "hart.sched", "hart.sb", "hart.exec",
	"dev", "mmu", "mem", "obs", "vfmd", "runtime.gc", "other",
}

// gcRoots mark a stack as garbage-collector work wherever it was sampled
// (background marking, sweeping, scavenging, and mutator assists).
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.markroot",
	"runtime.GC", "runtime.gcStart", "runtime.sweepone",
	"runtime/debug.FreeOSMemory",
}

// funcLayer maps one function name to its layer, or "" when the function
// belongs to no simulator layer (runtime, standard library, harness).
func funcLayer(fn string) string {
	const h = "govfm/internal/hart."
	switch {
	case strings.HasPrefix(fn, "govfm/internal/pmp."):
		return "pmp"
	case strings.HasPrefix(fn, "govfm/internal/core.(*Monitor).CheckWall"),
		strings.HasPrefix(fn, "govfm/internal/core.(*Monitor).checkWallAfterSwitch"):
		return "core.wall"
	case strings.HasPrefix(fn, "govfm/internal/core."),
		strings.HasPrefix(fn, "govfm/internal/policy/"):
		return "core"
	case strings.HasPrefix(fn, h+"(*Machine).stepSeq"),
		strings.HasPrefix(fn, h+"(*Machine).wfiBatch"),
		strings.HasPrefix(fn, h+"(*Machine).sbSeqHeadroom"),
		strings.HasPrefix(fn, h+"(*Machine).Run"),
		strings.HasPrefix(fn, h+"(*Machine).Step"),
		strings.HasPrefix(fn, h+"(*Machine).runPar"),
		strings.HasPrefix(fn, h+"(*Machine).parRound"),
		strings.HasPrefix(fn, h+"(*Machine).quantum"),
		strings.HasPrefix(fn, h+"(*Hart).runSlice"),
		strings.HasPrefix(fn, h+"(*CSRFile).SetHWLines"):
		return "hart.sched"
	case strings.HasPrefix(fn, h+"(*Hart).sb"),
		strings.HasPrefix(fn, h+"(*Hart).runBlock"):
		return "hart.sb"
	case strings.HasPrefix(fn, h), strings.HasPrefix(fn, "govfm/internal/rv."):
		return "hart.exec"
	case strings.HasPrefix(fn, "govfm/internal/dev/"):
		return "dev"
	case strings.HasPrefix(fn, "govfm/internal/mmu."):
		return "mmu"
	case strings.HasPrefix(fn, "govfm/internal/mem."):
		return "mem"
	case strings.HasPrefix(fn, "govfm/internal/obs."):
		return "obs"
	case strings.HasPrefix(fn, "govfm/internal/vfmd."):
		return "vfmd"
	}
	return ""
}

// sampleLayer attributes one stack (leaf first). GC work anywhere on the
// stack is runtime.gc. Otherwise the leaf's layer wins; a leaf in the
// runtime or standard library (allocation, memclr, map access, syscalls)
// is charged to the nearest caller that belongs to a layer, which is the
// layer that asked for the work. Stacks with no layer frame go to vfmd
// when they are HTTP transport goroutines, else to other.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcRoots {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if l := funcLayer(fn); l != "" {
			return l
		}
		if strings.HasPrefix(fn, "main.") {
			break // the benchmark harness itself
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.") {
			return "vfmd"
		}
	}
	return "other"
}

// layerSamples accumulates CPU milliseconds per layer.
type layerSamples map[string]float64

func (ls layerSamples) add(p *cpuProfile) {
	for i, st := range p.stacks {
		ls[sampleLayer(st)] += p.ms[i]
	}
}

func (ls layerSamples) total() float64 {
	var t float64
	for _, n := range ls {
		t += n
	}
	return t
}

// pct returns the layer's share of all CPU time in percent.
func (ls layerSamples) pct(layer string) float64 {
	t := ls.total()
	if t == 0 {
		return 0
	}
	return 100 * ls[layer] / t
}
