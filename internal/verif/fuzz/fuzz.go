package fuzz

import (
	"fmt"
	"math/rand"
)

// Fuzzer drives coverage-guided differential fuzzing across one or more
// platform profiles, round-robin. Coverage keys come from monitor events
// (emulated instruction encodings, virtual trap causes, world switches)
// and native trap causes; a case contributing a new key joins the corpus.
type Fuzzer struct {
	Engines []*Engine
	rng     *rand.Rand
	Seed    int64

	coverage map[uint64]struct{}
	corpus   [][]*TestCase // per engine

	// Stats.
	Cases      int
	GuestCases int // cases whose starting state had V=1
	Steps      int
	Findings   []*Finding
}

// corpusCap bounds the per-profile corpus; beyond it new entries replace
// random old ones.
const corpusCap = 256

// NewFuzzer builds engines for the given profile names.
func NewFuzzer(profiles []string, seed int64) (*Fuzzer, error) {
	f := &Fuzzer{
		Seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		coverage: map[uint64]struct{}{},
	}
	for _, p := range profiles {
		e, err := NewEngine(p)
		if err != nil {
			return nil, err
		}
		f.Engines = append(f.Engines, e)
		f.corpus = append(f.corpus, nil)
	}
	if len(f.Engines) == 0 {
		return nil, fmt.Errorf("fuzz: no profiles")
	}
	return f, nil
}

// nextCase picks a fresh or mutated case for engine i.
func (f *Fuzzer) nextCase(i int) *TestCase {
	e := f.Engines[i]
	c := f.corpus[i]
	if len(c) == 0 || f.rng.Intn(3) == 0 {
		return e.GenCase(f.rng)
	}
	parent := c[f.rng.Intn(len(c))]
	var other *TestCase
	if len(c) > 1 {
		other = c[f.rng.Intn(len(c))]
	}
	return e.Mutate(f.rng, parent, other)
}

// runOne executes a case on engine i, recording coverage and corpus
// growth. It returns the finding, if any (not yet minimized).
func (f *Fuzzer) runOne(i int, tc *TestCase) *Finding {
	e := f.Engines[i]
	newKeys := 0
	e.Cov = func(key uint64) {
		if _, ok := f.coverage[key]; !ok {
			f.coverage[key] = struct{}{}
			newKeys++
		}
	}
	finding, steps := e.Run(tc)
	e.Cov = nil
	f.Cases++
	if tc.State != nil && tc.State.V {
		f.GuestCases++
	}
	f.Steps += steps
	if finding != nil {
		f.Findings = append(f.Findings, finding)
		return finding
	}
	if newKeys > 0 {
		if len(f.corpus[i]) < corpusCap {
			f.corpus[i] = append(f.corpus[i], tc)
		} else {
			f.corpus[i][f.rng.Intn(corpusCap)] = tc
		}
	}
	return nil
}

// RunBudget fuzzes until the total lockstep step count reaches budget,
// alternating engines. Findings are minimized before being returned; the
// fuzzer keeps going after a finding (up to maxFindings) so one bug does
// not mask others.
func (f *Fuzzer) RunBudget(budget int, maxFindings int) []*Finding {
	return f.run(func() bool { return f.Steps < budget }, maxFindings)
}

// RunCases fuzzes until the total case count reaches n, alternating
// engines; otherwise identical to RunBudget. Case-denominated gates (the
// -hext CI gate promises a minimum case count) use this instead of a step
// budget.
func (f *Fuzzer) RunCases(n int, maxFindings int) []*Finding {
	return f.run(func() bool { return f.Cases < n }, maxFindings)
}

// run fuzzes while more() holds, alternating engines, and returns the
// minimized findings.
func (f *Fuzzer) run(more func() bool, maxFindings int) []*Finding {
	var minimized []*Finding
	for i := 0; more(); i = (i + 1) % len(f.Engines) {
		tc := f.nextCase(i)
		if fd := f.runOne(i, tc); fd != nil {
			minimized = append(minimized, Minimize(f.Engines[i], fd))
			if maxFindings > 0 && len(minimized) >= maxFindings {
				break
			}
		}
	}
	return minimized
}

// Coverage returns the number of distinct coverage keys observed.
func (f *Fuzzer) Coverage() int { return len(f.coverage) }

// CorpusSize returns the corpus size for engine i.
func (f *Fuzzer) CorpusSize(i int) int { return len(f.corpus[i]) }
