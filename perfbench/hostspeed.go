package main

import (
	"math/rand"
	"time"
)

// The host this benchmark runs on is a shared virtual machine whose speed
// drifts by up to 2× over tens of seconds, as neighbours load the same
// physical cores. A run therefore times a fixed reference kernel in short
// slices interleaved with the workload, and reports every host time
// scaled to a nominal host: one on which the reference kernel runs at
// refNominalRate. Both the workload and the reference slow down together
// when the host does, so the scaled figures follow the program, not the
// neighbours. The reference is part of the benchmark, not of govfm, so a
// change to govfm cannot move it.

// refNominalRate is the reference kernel's rate, in interpreted
// instructions per second, on the nominal host. It is roughly what the
// kernel reads on the 2-vCPU host the benchmark was tuned on, so scaled
// figures read close to raw ones there.
const refNominalRate = 200e6

// refSliceIters is the number of reference program passes in one slice,
// about 6 ms on the tuning host.
const refSliceIters = 20_000

// refProgram is the reference kernel's program: a fixed, generated
// sequence of register-machine instructions, the same on every run.
var refProgram = func() []refInsn {
	r := rand.New(rand.NewSource(0x5eed))
	p := make([]refInsn, 64)
	for i := range p {
		p[i] = refInsn{op: uint8(r.Intn(6)), a: uint8(r.Intn(16)), b: uint8(r.Intn(16)), c: uint8(r.Intn(16))}
	}
	return p
}()

type refInsn struct{ op, a, b, c uint8 }

// refMemWords is the reference kernel's data memory, 32 KiB.
const refMemWords = 4096

// refKernel interprets refProgram iters times over a 16-register file and
// a 32 KiB memory: decode-and-dispatch with data-dependent branches and
// loads and stores, the shape of the simulator's own inner loop. It
// returns a value that depends on every step, so no step can be dropped.
func refKernel(iters int) uint64 {
	var x [16]uint64
	for i := range x {
		x[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	mem := make([]uint64, refMemWords)
	for i := 0; i < iters; i++ {
		for _, in := range refProgram {
			switch in.op {
			case 0:
				x[in.a] = x[in.b] + x[in.c]
			case 1:
				x[in.a] = x[in.b] ^ (x[in.c] << 7) ^ (x[in.c] >> 3)
			case 2:
				x[in.a] = x[in.b]*0x2545f4914f6cdd1d + x[in.c]
			case 3:
				mem[x[in.b]%refMemWords] = x[in.a]
			case 4:
				x[in.a] += mem[x[in.b]%refMemWords]
			case 5:
				if x[in.b]&1 == 0 {
					x[in.a]++
				} else {
					x[in.a] -= x[in.c]
				}
			}
		}
	}
	var sum uint64
	for _, v := range x {
		sum += v
	}
	return sum
}

// refSink keeps the reference kernel's results alive.
var refSink uint64

// hostMeter accumulates reference slices over one batch. A nil meter
// measures nothing (traced batches, whose profile must hold the workload
// alone).
type hostMeter struct {
	insns float64
	secs  float64
}

// sample times one reference slice.
func (h *hostMeter) sample() {
	if h == nil {
		return
	}
	t := time.Now()
	refSink += refKernel(refSliceIters)
	h.secs += time.Since(t).Seconds()
	h.insns += float64(refSliceIters * len(refProgram))
}

// speed is the host's speed over the batch relative to the nominal host
// (0.5: the batch ran at half nominal speed). It is 0 when nothing was
// sampled.
func (h *hostMeter) speed() float64 {
	if h == nil || h.secs == 0 {
		return 0
	}
	return h.insns / h.secs / refNominalRate
}

// batchRefSlices is how many reference slices the run loop takes before
// and after each batch. They are all a fleet round gets, whose work runs
// in another process.
const batchRefSlices = 4

// sampleHost takes the run loop's slices on one side of a batch.
func sampleHost(h *hostMeter) {
	for i := 0; i < batchRefSlices; i++ {
		h.sample()
	}
}
