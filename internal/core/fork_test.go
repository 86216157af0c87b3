package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"govfm/internal/hart"
)

// monitorsEqual compares the architectural observables of two monitored
// machines plus the monitor-side counters that must travel with a fork.
func monitorsEqual(t *testing.T, tag string, a, b *hart.Machine, ma, mb *Monitor) {
	t.Helper()
	for i := range a.Harts {
		ha, hb := a.Harts[i], b.Harts[i]
		if ha.Cycles != hb.Cycles || ha.Instret != hb.Instret {
			t.Errorf("%s: hart %d cycles/instret %d/%d vs %d/%d",
				tag, i, ha.Cycles, ha.Instret, hb.Cycles, hb.Instret)
		}
		if ha.PC != hb.PC || ha.Mode != hb.Mode || ha.Regs != hb.Regs {
			t.Errorf("%s: hart %d pc/mode differ: %#x/%v vs %#x/%v",
				tag, i, ha.PC, ha.Mode, hb.PC, hb.Mode)
		}
	}
	if a.Uart.Output() != b.Uart.Output() {
		t.Errorf("%s: uart %q vs %q", tag, a.Uart.Output(), b.Uart.Output())
	}
	// WallProbes counts wall-memo misses: host bookkeeping that a fork
	// legitimately resets (the child starts with an empty memo). Every
	// other counter must travel with the fork.
	sa, sb := ma.TotalStats(), mb.TotalStats()
	sa.WallProbes, sb.WallProbes = 0, 0
	if sa != sb {
		t.Errorf("%s: monitor stats %+v vs %+v", tag, sa, sb)
	}
	for i := range ma.Ctx {
		ca, cb := ma.Ctx[i], mb.Ctx[i]
		if ca.VirtMode != cb.VirtMode || ca.VirtWaiting != cb.VirtWaiting {
			t.Errorf("%s: hart %d virt mode %v/%v vs %v/%v",
				tag, i, ca.VirtMode, ca.VirtWaiting, cb.VirtMode, cb.VirtWaiting)
		}
		va, vb := *ca.V, *cb.V
		va.Custom, vb.Custom = nil, nil
		va.PMP, vb.PMP = nil, nil
		if !reflect.DeepEqual(va, vb) {
			t.Errorf("%s: hart %d virtual CSR files differ:\n%+v\n%+v", tag, i, va, vb)
		}
		if !reflect.DeepEqual(ca.V.Custom, cb.V.Custom) {
			t.Errorf("%s: hart %d custom CSRs differ", tag, i)
		}
		ac, aa := ca.V.PMP.Snapshot()
		bc, ba := cb.V.PMP.Snapshot()
		if !reflect.DeepEqual(ac, bc) || !reflect.DeepEqual(aa, ba) {
			t.Errorf("%s: hart %d virtual PMP files differ", tag, i)
		}
	}
}

// TestMonitorForkMatchesColdReplay is the monitored half of the fork
// contract: a monitored system forked mid-boot must finish bit-identically
// — cycles, console, monitor counters, virtual CSR state — to a cold
// monitored machine replayed through the same trajectory; and the parent
// must be unperturbed by the child.
func TestMonitorForkMatchesColdReplay(t *testing.T) {
	for _, offload := range []bool{true, false} {
		name := "offload"
		if !offload {
			name = "emulate"
		}
		t.Run(name, func(t *testing.T) {
			const k1, total = 3_000, 3_000_000

			parent, pmon := scenario(t, hart.VisionFive2(), true, offload, 1)
			parent.Run(k1)
			if ok, _ := parent.Halted(); ok {
				t.Fatal("fork point must be mid-boot")
			}

			img, err := parent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			child, err := hart.SpawnFromImage(img)
			if err != nil {
				t.Fatal(err)
			}
			cmon, err := pmon.Fork(child)
			if err != nil {
				t.Fatal(err)
			}
			runToExit(t, child, total)
			runToExit(t, parent, total)

			cold, coldMon := scenario(t, hart.VisionFive2(), true, offload, 1)
			cold.Run(k1)
			runToExit(t, cold, total)

			monitorsEqual(t, "child-vs-cold", child, cold, cmon, coldMon)
			monitorsEqual(t, "parent-vs-cold", parent, cold, pmon, coldMon)
		})
	}
}

// TestMonitorForkFamilyConcurrent runs a monitored parent and forked
// children concurrently — the monitor-level COW/-race gate. Each child
// carries its own monitor clone; all must reach the same end state.
func TestMonitorForkFamilyConcurrent(t *testing.T) {
	parent, pmon := scenario(t, hart.VisionFive2(), true, true, 1)
	parent.Run(4_000)
	if ok, _ := parent.Halted(); ok {
		t.Fatal("fork point must be mid-boot")
	}

	const children = 3
	machines := []*hart.Machine{parent}
	monitors := []*Monitor{pmon}
	for i := 0; i < children; i++ {
		c, err := parent.Fork()
		if err != nil {
			t.Fatal(err)
		}
		cm, err := pmon.Fork(c)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, c)
		monitors = append(monitors, cm)
	}
	var wg sync.WaitGroup
	for _, m := range machines {
		wg.Add(1)
		go func(m *hart.Machine) {
			defer wg.Done()
			m.Run(3_000_000)
		}(m)
	}
	wg.Wait()
	for i, m := range machines {
		if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
			t.Fatalf("machine %d: halted=%v reason=%q uart=%q", i, ok, reason, m.Uart.Output())
		}
	}
	for i := 1; i < len(machines); i++ {
		monitorsEqual(t, "family", machines[0], machines[i], monitors[0], monitors[i])
	}
}

// statefulPolicy is a policy with state and no ForkPolicy.
type statefulPolicy struct {
	BasePolicy
	n int
}

func (*statefulPolicy) Name() string { return "stateful" }

// forkablePolicy adds the PolicyForker hook.
type forkablePolicy struct{ statefulPolicy }

func (p *forkablePolicy) ForkPolicy() Policy {
	c := *p
	return &c
}

// TestMonitorForkPolicyContract: stateful policies without PolicyForker
// are rejected; with it, the clone is independent.
func TestMonitorForkPolicyContract(t *testing.T) {
	m, mon := scenario(t, hart.VisionFive2(), true, false, 1)
	child, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}

	mon.Policy = &statefulPolicy{n: 7}
	if _, err := mon.Fork(child); err == nil || !strings.Contains(err.Error(), "PolicyForker") {
		t.Fatalf("stateful policy must be rejected, got %v", err)
	}

	fp := &forkablePolicy{statefulPolicy{n: 7}}
	mon.Policy = fp
	cm, err := mon.Fork(child)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cm.Policy.(*forkablePolicy)
	if !ok || got == fp || got.n != 7 {
		t.Fatalf("forked policy not an independent copy: %T %v", cm.Policy, got)
	}

	// Hart-count mismatch guard.
	cfg := hart.VisionFive2()
	cfg.Harts = 2
	m2, err := hart.NewMachine(cfg, DramSize)
	if err != nil {
		t.Fatal(err)
	}
	mon.Policy = BasePolicy{}
	if _, err := mon.Fork(m2); err == nil {
		t.Fatal("hart-count mismatch must be rejected")
	}
}
