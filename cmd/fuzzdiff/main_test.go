package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	var out, errw bytes.Buffer

	if code := run([]string{"-profile", "bogus"}, &out, &errw); code != 2 {
		t.Errorf("unknown profile: exit %d, want 2", code)
	}
	if code := run([]string{"-bad-flag"}, &out, &errw); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}

	out.Reset()
	code := run([]string{"-profile", "vf2", "-seed", "3", "-budget", "2000",
		"-repros", t.TempDir()}, &out, &errw)
	if code != 0 {
		t.Errorf("short clean run: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "0 divergence(s)") {
		t.Errorf("summary missing: %s", out.String())
	}
}

func TestRunEquivMode(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-profile", "vf2", "-seed", "9", "-equiv", "12"}, &out, &errw)
	if code != 0 {
		t.Errorf("equiv mode: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	for _, want := range []string{
		"visionfive2  machine: 12 cases",
		"interp/seq/cold",
		"superblocks/seq/fork",
		"caches/par(q=7)/fork",
		"monitored caches on/off: 12 cases",
		"equiv: 0 divergence(s) across 1 profile(s)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("equiv summary missing %q:\n%s", want, out.String())
		}
	}
	for _, gone := range [][]string{
		{"-sched", "both"}, {"-superblock", "both"}, {"-fork", "5"},
		{"-equiv-cases", "5"}, {"-fastpath", "both"},
	} {
		if code := run(gone, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2 (flag or value removed)", gone, code)
		}
	}
}

// TestRunEquivAllProfiles: under -profile all the equivalence mode also
// sweeps rva23, the one profile with Sstc.
func TestRunEquivAllProfiles(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-seed", "4", "-equiv", "3"}, &out, &errw)
	if code != 0 {
		t.Errorf("equiv mode: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	for _, want := range []string{"visionfive2  machine: 3 cases", "p550         machine: 3 cases",
		"rva23        machine: 3 cases", "equiv: 0 divergence(s) across 3 profile(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("equiv summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunInjectMode(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-profile", "vf2", "-seed", "5", "-inject", "6"}, &out, &errw)
	if code != 0 {
		t.Errorf("inject mode: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "inject: cases=6") {
		t.Errorf("inject summary missing: %s", out.String())
	}
}
