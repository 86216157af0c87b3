package pmp

import (
	"math/rand"
	"testing"

	"govfm/internal/mem"
	"govfm/internal/rv"
)

// Content-identity property tests: Epoch names the entries, not the
// writes. Within one file's lifetime equal contents get equal ids while
// their view is cached, differing contents never share an id, and every
// fresh id is above every id issued before — also across Reset, restore
// (AdvanceEpoch) and snapshot, and on both sides of a diverging Clone.

// contents is the architectural state an id names.
type contents struct {
	cfg  [MaxEntries]byte
	addr [MaxEntries]uint64
}

// lineage is one file's history as the test models it: names maps every
// id the file (or the file it was cloned or restored from) has named its
// entries by to those entries, and recent lists the views the cache must
// still hold, least recently identified first.
type lineage struct {
	t      *testing.T
	f      *File
	names  map[uint64]contents
	recent []namedView
	maxID  uint64
	hits   int
}

type namedView struct {
	c  contents
	id uint64
}

func (l *lineage) cur() contents { return contents{l.f.cfg, l.f.addr} }

// observe reads the id and checks it against the model.
func (l *lineage) observe(op string) {
	l.t.Helper()
	wasDirty := l.f.dirty
	id, c := l.f.Epoch(), l.cur()
	prev, known := l.names[id]
	if known && prev != c {
		l.t.Fatalf("%s: id %d names two contents", op, id)
	}
	if !known && id <= l.maxID {
		l.t.Fatalf("%s: fresh id %d not above the highest issued %d", op, id, l.maxID)
	}
	l.names[id] = c
	l.maxID = max(l.maxID, id)
	if !wasDirty {
		return
	}
	// An identification ran: a cached view must be found again, anything
	// else — never seen, evicted, or seen before the cache was dropped —
	// gets a fresh id. The identified view becomes the most recent one.
	hit := false
	for k, v := range l.recent {
		if v.c == c {
			if v.id != id {
				l.t.Fatalf("%s: cached view came back as id %d, want %d", op, id, v.id)
			}
			l.recent = append(l.recent[:k], l.recent[k+1:]...)
			l.hits++
			hit = true
			break
		}
	}
	if !hit && known {
		l.t.Fatalf("%s: uncached contents got the old id %d", op, id)
	}
	l.recent = append(l.recent, namedView{c, id})
	if len(l.recent) > numViews {
		l.recent = l.recent[1:]
	}
}

// drop records that the file's view cache was discarded.
func (l *lineage) drop() { l.recent = nil }

// checkVerdicts holds the file's Check against the architectural scan of
// a file decoded from scratch with the same entries, and against its own
// scan over the (possibly restored) decoded regions.
func (l *lineage) checkVerdicts(rng *rand.Rand, op string) {
	l.t.Helper()
	ref := NewFile(l.f.n)
	for i := 0; i < l.f.n; i++ {
		ref.ForceAddr(i, l.f.addr[i])
		ref.ForceCfg(i, l.f.cfg[i])
	}
	ref.Epoch() // decode from scratch
	for p := 0; p < 24; p++ {
		addr := probeAddr(rng, l.f)
		size := []int{1, 4, 8}[rng.Intn(3)]
		acc := []mem.AccessType{mem.Read, mem.Write, mem.Exec}[rng.Intn(3)]
		mode := []rv.Mode{rv.ModeU, rv.ModeS, rv.ModeM}[rng.Intn(3)]
		got := l.f.Check(addr, size, acc, mode)
		if want := ref.checkScan(addr, size, acc, mode); got != want {
			l.t.Fatalf("%s: Check(%#x,%d,%v,%v)=%v, fresh scan says %v", op, addr, size, acc, mode, got, want)
		}
		if scan := l.f.checkScan(addr, size, acc, mode); scan != got {
			l.t.Fatalf("%s: restored regions scan %v, Check %v at %#x", op, scan, got, addr)
		}
	}
}

// probeAddr picks an address near some entry's region boundary.
func probeAddr(rng *rand.Rand, f *File) uint64 {
	i := rng.Intn(f.n)
	lo, last, _ := f.Region(i)
	switch rng.Intn(4) {
	case 0:
		return lo - uint64(rng.Intn(8))
	case 1:
		return last - uint64(rng.Intn(8))
	case 2:
		return lo + uint64(rng.Intn(64))
	}
	return rng.Uint64() >> rng.Intn(40)
}

// idAddrs and randCfg draw from small value spaces, so random writes
// often recreate earlier contents and the view cache gets hits.
var idAddrs = []uint64{0, 0x100, 0x20000000, NAPOTAddr(0x8000_0000, 0x1000), NAPOTAddr(0x8000_0000, 0x10_0000), rv.Mask(54)}

func randCfg(rng *rand.Rand) byte {
	cfg := byte(rng.Intn(8)) | byte(rng.Intn(4))<<3
	if rng.Intn(6) == 0 {
		cfg |= CfgL
	}
	return cfg
}

// worlds are whole-file programmings a step can switch to, as the
// monitor's world switch does with Force*.
func makeWorlds(rng *rand.Rand, n int) []contents {
	ws := make([]contents, 4)
	for w := range ws {
		for i := 0; i < n; i++ {
			ws[w].addr[i] = idAddrs[rng.Intn(len(idAddrs))]
			ws[w].cfg[i] = LegalizeCfg(randCfg(rng))
		}
	}
	return ws
}

// step applies one random operation to l. Clone steps fork the lineage
// and run both copies; depth bounds the nesting.
func (l *lineage) step(rng *rand.Rand, worlds []contents, depth int) {
	l.t.Helper()
	f := l.f
	i := rng.Intn(f.n)
	switch op := rng.Intn(16); op {
	case 0:
		f.SetCfg(i, randCfg(rng))
	case 1:
		f.SetAddr(i, idAddrs[rng.Intn(len(idAddrs))])
	case 2:
		f.ForceCfg(i, randCfg(rng))
	case 3:
		f.ForceAddr(i, idAddrs[rng.Intn(len(idAddrs))])
	case 4: // cfg/addr round trips: rewriting what is there
		reg := 2 * rng.Intn((f.n+7)/8)
		f.SetCfgReg(reg, f.CfgReg(reg))
		f.SetAddr(i, f.Addr(i))
	case 5, 6, 7, 8: // world switch
		w := worlds[rng.Intn(len(worlds))]
		for k := 0; k < f.n; k++ {
			f.ForceAddr(k, w.addr[k])
			f.ForceCfg(k, w.cfg[k])
		}
	case 9:
		f.Reset()
		l.drop()
	case 10: // snapshot restore, as hart.Restore does it
		snap := f.CloneSnapshot()
		if snap.Epoch() != 0 || snap.MaxEpoch() != 0 || snap.views != nil {
			l.t.Fatal("CloneSnapshot must clear the content identity")
		}
		g := snap.CloneSnapshot()
		g.SetFast(f.fast)
		g.AdvanceEpoch(f.MaxEpoch() + 1)
		l.f = g
		l.drop()
	case 11: // power cycle, as hart.Machine.Reset does it
		g := NewFile(f.n)
		g.SetFast(f.fast)
		g.AdvanceEpoch(f.MaxEpoch() + 1)
		l.f = g
		l.drop()
	case 12:
		f.AdvanceEpoch(rng.Uint64() % (f.MaxEpoch() + 3))
		l.drop()
	case 13:
		f.SetFast(!f.fast)
	case 14:
		if depth > 0 {
			l.fork(rng, worlds, depth-1)
		}
	}
	l.observe("step")
	if rng.Intn(3) == 0 {
		l.checkVerdicts(rng, "step")
	}
}

// fork clones the file, runs both copies apart, and keeps one of them.
func (l *lineage) fork(rng *rand.Rand, worlds []contents, depth int) {
	l.observe("pre-clone")
	c := &lineage{t: l.t, f: l.f.Clone(), names: map[uint64]contents{}, maxID: l.maxID}
	for id, v := range l.names {
		c.names[id] = v
	}
	c.recent = append([]namedView(nil), l.recent...)
	if c.f.Epoch() != l.f.Epoch() {
		l.t.Fatal("Clone must keep the content id")
	}
	for k := 0; k < 12; k++ {
		l.step(rng, worlds, depth)
		c.step(rng, worlds, depth)
	}
	l.hits += c.hits
	if rng.Intn(2) == 0 {
		l.f, l.names, l.recent, l.maxID = c.f, c.names, c.recent, c.maxID
	}
}

func TestContentIdentityProperty(t *testing.T) {
	hits := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{4, 8, 16}[rng.Intn(3)]
		// A fresh file names its all-zero entries 0.
		l := &lineage{t: t, f: NewFile(n), names: map[uint64]contents{0: {}}}
		l.f.SetFast(rng.Intn(2) == 0)
		l.observe("new")
		worlds := makeWorlds(rng, n)
		for k := 0; k < 400; k++ {
			l.step(rng, worlds, 1)
		}
		hits += l.hits
	}
	if hits < 2000 {
		t.Fatalf("only %d view-cache hits: the sequences do not revisit contents", hits)
	}
}

// TestEpochTracksContent replaces the old "every write bumps the epoch"
// contract: each mutator that changes the entries gives a fresh id above
// every earlier one, a write of the value already there keeps the id, and
// programming a view seen before brings its id back.
func TestEpochTracksContent(t *testing.T) {
	f := NewFile(4)
	e := f.Epoch()
	step := func(name string, fn func()) {
		t.Helper()
		fn()
		if f.Epoch() <= e {
			t.Fatalf("%s did not issue a fresh id", name)
		}
		e = f.Epoch()
	}
	step("SetAddr", func() { f.SetAddr(0, 0x100) })
	step("SetCfg", func() { f.SetCfg(0, CfgR|ATor<<3) })
	step("ForceAddr", func() { f.ForceAddr(1, 0x200) })
	step("ForceCfg", func() { f.ForceCfg(1, CfgR|CfgW|ATor<<3) })
	step("SetCfgReg", func() { f.SetCfgReg(0, 0x0f0f) })

	f.SetCfgReg(0, f.CfgReg(0))
	f.ForceAddr(1, f.Addr(1))
	if f.Epoch() != e {
		t.Fatalf("rewriting the same values moved the id %d -> %d", e, f.Epoch())
	}
	f.ForceAddr(1, 0x300)
	other := f.Epoch()
	f.ForceAddr(1, 0x200)
	if f.Epoch() != e {
		t.Fatalf("return to a known view got id %d, want %d", f.Epoch(), e)
	}
	f.ForceAddr(1, 0x300)
	if f.Epoch() != other {
		t.Fatalf("return to the other view got id %d, want %d", f.Epoch(), other)
	}
	step("Reset", func() { f.Reset() })
}
