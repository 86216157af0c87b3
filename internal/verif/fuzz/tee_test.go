package fuzz

import "testing"

// TestTEEFuzzSmoke runs a few TEE lifecycle cases per profile. Among the
// findings it would report is any disagreement between the memoized
// world-switch wall check and the full CheckWall.
func TestTEEFuzzSmoke(t *testing.T) {
	rep, err := RunTEE([]string{"visionfive2", "p550"}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("no lifecycle operations issued")
	}
	for _, f := range rep.Failures {
		t.Error(f)
	}
}
