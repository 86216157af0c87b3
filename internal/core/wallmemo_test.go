package core

import (
	"strings"
	"testing"

	"govfm/internal/hart"
	"govfm/internal/pmp"
)

// watchWall holds the memoized after-switch wall check against the full
// CheckWall after every world switch of mon (the trace hook fires once the
// switch's own check has run), and counts the switches it saw.
func watchWall(t *testing.T, tag string, mon *Monitor, switches *int) {
	t.Helper()
	mon.Opts.Trace = func(event string, ctx *HartCtx) {
		if !strings.HasPrefix(event, "world-switch:") {
			return
		}
		*switches++
		memo, full := ctx.Mon.checkWallAfterSwitchMemo(ctx), ctx.Mon.CheckWall(ctx)
		if (memo == nil) != (full == nil) {
			t.Errorf("%s: switch %d: memoized wall check %v, full CheckWall %v", tag, *switches, memo, full)
		}
		if breached := ctx.Hart.Halted && strings.Contains(ctx.Hart.HaltReason, "wall breached"); breached != (full != nil) {
			t.Errorf("%s: switch %d: after-switch check halted=%v, full CheckWall %v", tag, *switches, breached, full)
		}
	}
}

// TestWallMemoMatchesFullProbe runs monitored boots forked at several
// points, parent and child both watched, and requires the memoized check
// and the full probe to agree on every world switch. The memo must also
// pay: each run probes far fewer times than it checks.
func TestWallMemoMatchesFullProbe(t *testing.T) {
	for _, offload := range []bool{true, false} {
		for _, k1 := range []uint64{300, 1_500, 4_000} {
			parent, pmon := scenario(t, hart.VisionFive2(), true, offload, 1)
			var ps, cs int
			watchWall(t, "parent", pmon, &ps)
			parent.Run(k1)
			if ok, _ := parent.Halted(); ok {
				t.Fatalf("k1=%d: fork point must be mid-boot", k1)
			}
			child, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			cmon, err := pmon.Fork(child)
			if err != nil {
				t.Fatal(err)
			}
			watchWall(t, "child", cmon, &cs)
			runToExit(t, child, 3_000_000)
			runToExit(t, parent, 3_000_000)
			if cs == 0 || ps == 0 {
				t.Fatalf("offload=%v k1=%d: no world switches watched (parent %d, child %d)", offload, k1, ps, cs)
			}
			for _, mon := range []*Monitor{pmon, cmon} {
				st := mon.TotalStats()
				if st.WallChecks != st.WorldSwitches || st.WallProbes < 1 || 4*st.WallProbes > st.WallChecks {
					t.Errorf("offload=%v k1=%d: %d switches, %d checks, %d probes",
						offload, k1, st.WorldSwitches, st.WallChecks, st.WallProbes)
				}
			}
		}
	}
}

// wallWarm boots the contained scenario until both worlds have a memoized
// wall verdict.
func wallWarm(t *testing.T) (*Monitor, *HartCtx) {
	t.Helper()
	m, mon := containScenario(t, nil)
	ctx := mon.Ctx[0]
	for i := 0; i < 100 && !(ctx.wallMemo[WorldFirmware].ok && ctx.wallMemo[WorldOS].ok); i++ {
		m.Run(1_000)
	}
	if !ctx.wallMemo[WorldFirmware].ok || !ctx.wallMemo[WorldOS].ok {
		t.Fatal("test premise: both worlds must have a memoized wall verdict")
	}
	return mon, ctx
}

func requireBreach(t *testing.T, mon *Monitor, ctx *HartCtx) {
	t.Helper()
	if !ctx.Hart.Halted || !strings.Contains(ctx.Hart.HaltReason, "wall breached") {
		t.Fatalf("breach must halt, got halted=%v %q", ctx.Hart.Halted, ctx.Hart.HaltReason)
	}
	if len(mon.Faults) == 0 || mon.Faults[len(mon.Faults)-1].Kind != FaultWallBreach {
		t.Fatal("breach must leave a FaultWallBreach record")
	}
}

// TestWallMemoHitStillChecksEntry plants a wall breach on a memo hit: entry
// 0 is tampered between switches and the memo is made to claim the
// tampered view verified. The live entry compare must refuse the memo, and
// the full check must halt the machine.
func TestWallMemoHitStillChecksEntry(t *testing.T) {
	mon, ctx := wallWarm(t)
	phys := ctx.Hart.CSR.PMP
	phys.ForceCfg(pmpSelf, pmp.CfgR|pmp.CfgW|pmp.CfgX|pmp.ANapot<<3)
	ctx.wallMemo[ctx.World()] = wallVerdict{id: phys.Epoch(), ok: true}
	probes := ctx.Stats.WallProbes
	mon.checkWallAfterSwitch(ctx)
	requireBreach(t, mon, ctx)
	if ctx.Stats.WallProbes != probes+1 {
		t.Error("a tampered wall entry must bypass the memo and run the full check")
	}
}

// TestWallMemoMissesOnOtherEntry changes an entry other than the wall: the
// content id changes, so the next after-switch check must run the full
// probe instead of trusting the world's memo. With the wall entry intact
// the probe passes; with it tampered as well, the check halts.
func TestWallMemoMissesOnOtherEntry(t *testing.T) {
	mon, ctx := wallWarm(t)
	phys := ctx.Hart.CSR.PMP
	last := phys.NumEntries() - 1
	before := phys.Epoch()
	phys.ForceAddr(last, phys.Addr(last)^0x100)
	if phys.Epoch() == before {
		t.Fatal("changing an entry must change the content id")
	}
	probes := ctx.Stats.WallProbes
	mon.checkWallAfterSwitch(ctx)
	if ctx.Hart.Halted {
		t.Fatalf("intact wall must pass: %s", ctx.Hart.HaltReason)
	}
	if ctx.Stats.WallProbes != probes+1 {
		t.Fatalf("id change must force the full probe: %d -> %d probes", probes, ctx.Stats.WallProbes)
	}
	if m := ctx.wallMemo[ctx.World()]; !m.ok || m.id != phys.Epoch() {
		t.Fatal("a passing probe must memoize the new id")
	}

	phys.ForceAddr(last, phys.Addr(last)^0x100)
	phys.ForceAddr(pmpSelf, pmp.NAPOTAddr(MiralisBase, MiralisSize/2))
	mon.checkWallAfterSwitch(ctx)
	requireBreach(t, mon, ctx)
}
