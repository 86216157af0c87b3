package verif

import (
	"strings"
	"testing"

	"govfm/internal/verif/fuzz"
)

// TestForkEquivalenceSmoke is the fork half of the machine sweep on its
// own seed: every case forks one tier's run, and both the child and the
// post-fork parent must end bit-exact with a cold run. Every tier must be
// forked under both schedulers, and the fork images must carry pages. The
// full-size sweep is the -equiv gate of scripts/verify.sh.
func TestForkEquivalenceSmoke(t *testing.T) {
	st, err := fuzz.RunMachineEquivalence([]string{"visionfive2", "p550"}, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cases < 50 {
		t.Fatalf("only %d cases ran", st.Cases)
	}
	for _, m := range st.Mismatches {
		t.Errorf("DIVERGENCE %s", m)
	}
	if st.ForkPages == 0 {
		t.Error("fork images carried no pages; the workload never touched RAM")
	}
	for _, tier := range []string{"interp", "caches", "superblocks"} {
		var seq, par int
		for cell, n := range st.Cells {
			if !strings.HasPrefix(cell, tier+"/") || !strings.HasSuffix(cell, "/fork") {
				continue
			}
			if strings.Contains(cell, "/par(") {
				par += n
			} else {
				seq += n
			}
		}
		if seq == 0 || par == 0 {
			t.Errorf("%s forked %d times under seq, %d under par", tier, seq, par)
		}
	}
}
