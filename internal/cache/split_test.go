package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/object"
)

// tally is a test-side reference count kept apart from the simulator, with
// the per-object growth rule written out: on a reference past the end,
// grow to half again past the referenced ID.
type tally struct {
	accesses uint64
	cats     [object.NumCategories]uint64
	refs     []uint64
}

func (t *tally) count(cat object.Category, obj object.ID) {
	t.accesses++
	t.cats[cat]++
	if int(obj) >= len(t.refs) {
		n := int(obj) + 1
		t.refs = append(t.refs, make([]uint64, n+n/2-len(t.refs))...)
	}
	t.refs[obj]++
}

// checkSplit fails unless whole and stepped (stamped from tl) read the
// same: every Stats field, both per-object slices (contents and lengths),
// and the attribution snapshot.
func checkSplit(t *testing.T, name string, whole, stepped *Sim, tl *tally) {
	t.Helper()
	stepped.SetTally(tl.accesses, tl.cats, tl.refs)
	if a, b := whole.Stats(), stepped.Stats(); a != b {
		t.Fatalf("%s: stats diverged:\nAccess %+v\nStep   %+v", name, a, b)
	}
	wr, wm := whole.ObjectStats()
	sr, sm := stepped.ObjectStats()
	if !slices.Equal(wr, sr) || !slices.Equal(wm, sm) {
		t.Fatalf("%s: object stats diverged:\nAccess refs %d %v misses %d %v\nStep   refs %d %v misses %d %v",
			name, len(wr), wr, len(wm), wm, len(sr), sr, len(sm), sm)
	}
	if a, b := whole.Attribution().Stats(), stepped.Attribution().Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: attribution diverged", name)
	}
}

// TestStepPlusTallyMatchesAccess drives each policy and associativity
// with Access/Write on one simulator and with Step on another, whose
// references a test-side tally counts and stamps at the end. Object IDs
// climb through the stream, as heap objects born mid-run do, so the
// per-object counters cross their growth boundary many times.
func TestStepPlusTallyMatchesAccess(t *testing.T) {
	policies := []struct {
		name     string
		classify bool
		attr     bool
		tweak    func(*Config)
	}{
		{name: "plain"},
		{name: "classify", classify: true},
		{name: "victim", tweak: func(c *Config) { c.VictimEntries = 4 }},
		{name: "prefetch", tweak: func(c *Config) { c.Prefetch = true }},
		{name: "writeback", tweak: func(c *Config) { c.WriteBack = true }},
		{name: "attribution", attr: true},
	}
	refs := localStream(11, 20000)
	for _, p := range policies {
		for ways := 1; ways <= 8; ways++ {
			sets := int64(64)
			if ways&(ways-1) != 0 {
				sets = 32 // keep sets a power of two at 3, 5, 6 and 7 ways
			}
			cfg := Config{Size: sets * int64(ways) * 32, BlockSize: 32, Assoc: ways}
			if p.tweak != nil {
				p.tweak(&cfg)
			}
			name := fmt.Sprintf("%s/%dw", p.name, ways)
			whole, stepped := mustNew(t, cfg, p.classify), mustNew(t, cfg, p.classify)
			if p.attr {
				whole.SetAttribution(NewAttribution(cfg, 16))
				stepped.SetAttribution(NewAttribution(cfg, 16))
			}
			whole.PresizeObjects(4)
			stepped.PresizeObjects(4)
			tl := &tally{refs: make([]uint64, 4)}
			r := rand.New(rand.NewSource(int64(ways)))
			for n, rf := range refs {
				obj := object.ID(r.Intn(4 + n/40))
				cat := object.Category(int(obj) % object.NumCategories)
				if rf.write {
					whole.Write(rf.addr, rf.size, cat, obj)
				} else {
					whole.Access(rf.addr, rf.size, cat, obj)
				}
				stepped.Step(rf.addr, rf.size, cat, obj, rf.write)
				tl.count(cat, obj)
			}
			if whole.Stats().Misses == 0 {
				t.Fatalf("%s: no misses; the stream does not exercise the step", name)
			}
			checkSplit(t, name, whole, stepped, tl)
		}
	}
}

// TestSetTallyTrimsMisses covers a step-driven simulator whose miss
// counters outgrow the tally: object 9 only ever hits, so the tally grows
// to 15 on it, while the step first sees a miss at object 14 and grows to
// 22. Stamping cuts the miss counters back to the tally's length.
func TestSetTallyTrimsMisses(t *testing.T) {
	whole, stepped := mustNew(t, DefaultConfig, false), mustNew(t, DefaultConfig, false)
	tl := &tally{}
	for _, r := range []struct {
		addr addrspace.Addr
		obj  object.ID
	}{{0, 0}, {8, 9}, {4096, 14}} {
		whole.Access(r.addr, 4, object.Global, r.obj)
		stepped.Step(r.addr, 4, object.Global, r.obj, false)
		tl.count(object.Global, r.obj)
	}
	if _, m := stepped.ObjectStats(); len(m) != 22 {
		t.Fatalf("step-grown miss counters have length %d, want 22", len(m))
	}
	checkSplit(t, "trim", whole, stepped, tl)
	if r, m := stepped.ObjectStats(); len(r) != 15 || len(m) != 15 {
		t.Fatalf("stamped lengths refs %d misses %d, want 15", len(r), len(m))
	}
}
