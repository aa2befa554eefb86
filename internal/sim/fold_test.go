package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/heapsim"
	"repro/internal/hierarchy"
	"repro/internal/layout"
	"repro/internal/object"
	"repro/internal/persist"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vmpage"
)

// foldProgram is a seeded workload for the folding oracle. Its first
// phase declares the statics and returns the second, which drives the
// emitter: runs of adjacent accesses of 0 to 64 bytes over globals, the
// stack and live heap objects, some long enough to reach the 256-access
// cap, each run then continued at its next offset under another kind,
// size or object, or after an Alloc or a Free, or walked back down.
func foldProgram(seed int64) func(tbl *object.Table) func(em *trace.Emitter) {
	return func(tbl *object.Table) func(em *trace.Emitter) {
		r := rand.New(rand.NewSource(seed))
		big := tbl.AddGlobal("big", 8192)
		objs := []object.ID{big, object.StackID}
		for i := 0; i < 6; i++ {
			objs = append(objs, tbl.AddGlobal(fmt.Sprintf("g%d", i), int64(64<<r.Intn(4))))
		}
		return func(em *trace.Emitter) {
			var live []object.ID
			access := func(kind trace.Kind, id object.ID, off, w int64, n int) int64 {
				for size := tbl.Get(id).Size; n > 0 && off+w <= size; n, off = n-1, off+w {
					if kind == trace.Store {
						em.Store(id, off, w)
					} else {
						em.Load(id, off, w)
					}
				}
				return off
			}
			malloc := func() {
				id := em.Malloc("h", int64(64+r.Intn(1024)), uint64(r.Intn(4)))
				live, objs = append(live, id), append(objs, id)
			}
			free := func() {
				if len(live) < 2 {
					return
				}
				i := r.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				for j := range objs {
					if objs[j] == id {
						objs = append(objs[:j], objs[j+1:]...)
						break
					}
				}
				em.Free(id)
			}
			for step := 0; step < 1500; step++ {
				switch k := r.Intn(100); {
				case k < 3:
					malloc()
					continue
				case k < 5:
					free()
					continue
				}
				id := objs[r.Intn(len(objs))]
				w := []int64{0, 1, 4, 8, 8, 16, 64}[r.Intn(7)]
				n := 1 + r.Intn(24)
				if r.Intn(12) == 0 {
					id, w, n = big, []int64{1, 4}[r.Intn(2)], 200+r.Intn(400)
				}
				kind := []trace.Kind{trace.Load, trace.Store}[r.Intn(2)]
				off := access(kind, id, r.Int63n(tbl.Get(id).Size), w, n)
				n = 1 + r.Intn(8)
				switch r.Intn(7) {
				case 0:
					access(trace.Load+trace.Store-kind, id, off, w, n)
				case 1:
					access(kind, id, off, w+4, n)
				case 2:
					access(kind, objs[r.Intn(len(objs))], off, w, n)
				case 3:
					malloc()
					access(kind, id, off, w, n)
				case 4:
					free()
					if tbl.Get(id).Live() {
						access(kind, id, off, w, n)
					}
				case 5:
					// Back down the run: adjacent, but descending.
					for off -= 2 * w; n > 0 && off >= 0; n, off = n-1, off-w {
						access(kind, id, off, w, 1)
					}
				}
			}
		}
	}
}

// foldSinks is every consumer the folding oracle drives from one
// enricher: profilers and one evaluation group.
type foldSinks struct {
	names  []string
	sinks  []trace.RecHandler
	finish []func() []byte
	recs   recCollector
}

func (f *foldSinks) HandleRecs(recs []trace.Rec) {
	for _, s := range f.sinks {
		s.HandleRecs(recs)
	}
	f.recs.HandleRecs(recs)
}

func (f *foldSinks) add(name string, sink trace.RecHandler, finish func() []byte) {
	f.names, f.sinks, f.finish = append(f.names, name), append(f.sinks, sink), append(f.finish, finish)
}

// newFoldSinks attaches to tbl, which must hold every static: the
// sequential and the sharded profiler at 1, 2 and 4 shards with adaptive
// warmup at its default and off, each with time sampling off and on; and
// one group under a temporal-fit heap, so every address depends on the
// allocator clock, holding plain members at three line sizes, members
// with each optional policy on, a hierarchy and a page tracker. finish
// renders each sink's result through en's tally.
func newFoldSinks(t *testing.T, tbl *object.Table, en func() *trace.Enricher) *foldSinks {
	t.Helper()
	f := &foldSinks{}
	persisted := func(p *profile.Profile) []byte {
		var buf bytes.Buffer
		if err := persist.WriteProfile(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	opts := DefaultOptions()
	for _, sampled := range []bool{false, true} {
		cfg := opts.Profile
		if sampled {
			cfg.SampleWindow, cfg.SamplePeriod = 30, 100
		}
		p, err := profile.New(cfg, tbl)
		if err != nil {
			t.Fatal(err)
		}
		f.add(fmt.Sprintf("profiler sampled=%v", sampled), p, func() []byte { return persisted(p.Finish()) })
		for _, shards := range []int{1, 2, 4} {
			for _, warmup := range []int{0, -1} {
				c := cfg
				c.AdaptiveWarmup = warmup
				s, err := profile.NewSharded(c, tbl, shards, opts.Cache.Size)
				if err != nil {
					t.Fatal(err)
				}
				f.add(fmt.Sprintf("sharded%d warmup=%d sampled=%v", shards, warmup, sampled), s, func() []byte { return persisted(s.Finish()) })
			}
		}
	}

	g := &Group{Pages: vmpage.NewTracker(0.01)}
	g.SetLayout(tbl, layout.Natural(tbl), heapsim.NewTemporalFit())
	c := func(size, block int64, assoc int) cache.Config {
		return cache.Config{Size: size, BlockSize: block, Assoc: assoc}
	}
	members := []stripeMember{
		{cfg: c(1024, 16, 1)}, {cfg: c(4096, 32, 2)}, {cfg: c(8192, 32, 1)}, {cfg: c(8192, 64, 4)},
		{cfg: c(2048, 32, 1), classify: true},
		{cfg: c(4096, 32, 2), attribution: true},
		{cfg: cache.Config{Size: 2048, BlockSize: 32, Assoc: 1, Prefetch: true}},
		{cfg: cache.Config{Size: 4096, BlockSize: 64, Assoc: 2, WriteBack: true}},
		{cfg: cache.Config{Size: 1024, BlockSize: 16, Assoc: 1, VictimEntries: 4}},
	}
	var sims []MemberSim
	for _, m := range members {
		o := DefaultOptions()
		o.Cache, o.Classify, o.Attribution = m.cfg, m.classify, m.attribution
		cs, err := g.Add(Member{Cache: m.cfg}, o, tbl.Len())
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, cs)
	}
	ms, err := g.Add(Member{Hier: &hierarchy.Config{L1: c(1024, 32, 1), L2: c(8192, 32, 4), TLBEntries: 8}}, DefaultOptions(), tbl.Len())
	if err != nil {
		t.Fatal(err)
	}
	hs := ms.Hier
	f.add("group", g, func() []byte {
		var out []any
		for _, cs := range sims {
			res := g.Result(cs, en(), LayoutNatural).Eval
			out = append(out, res.Stats, res.ObjRefs, res.ObjMisses, res.Attribution, res.AllocStats, res.TotalPages, res.WorkingSet)
		}
		out = append(out, hs.Stats(), hs.Attribution().Stats(), en().Counter.Loads, en().Counter.Stores, en().Counter.CategoryRefs)
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
	return f
}

// appender is the sweep broadcast's way of batching: it appends every
// event to one growing record batch across deliveries, so a run can fold
// across the emitter's batches and an Alloc or Free lands inside a batch,
// and hands the batch on every 3000 events or so.
type appender struct {
	en     *trace.Enricher
	sink   trace.RecHandler
	recs   []trace.Rec
	events int
}

func (a *appender) HandleEvent(ev trace.Event) { a.HandleBatch([]trace.Event{ev}) }

func (a *appender) HandleBatch(evs []trace.Event) {
	a.recs = a.en.Append(a.recs, evs...)
	if a.events += len(evs); a.events >= 3000 {
		a.flush()
	}
}

func (a *appender) flush() {
	a.sink.HandleRecs(a.recs)
	a.recs, a.events = a.recs[:0], 0
}

// TestFoldedRunsMatchSingleEvents is the folding oracle: the same
// programs run through an enricher whose every record batch holds one
// event (HandleEvent, which never folds), one fed the emitter's batches
// (HandleBatch), and one that appends across batches as the sweep
// broadcast does. Every profile's persisted bytes and the group's
// encoded results must be identical across the three.
func TestFoldedRunsMatchSingleEvents(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		prog := foldProgram(seed)
		type path struct {
			name  string
			sinks *foldSinks
			en    *trace.Enricher
		}
		var paths []path
		for _, mode := range []string{"single", "batched", "appended"} {
			tbl := object.NewTable(4096)
			body := prog(tbl)
			var en *trace.Enricher
			f := newFoldSinks(t, tbl, func() *trace.Enricher { return en })
			en = trace.NewEnricher(tbl, f)
			var h trace.Handler = en
			var app *appender
			switch mode {
			case "single":
				h = trace.HandlerFunc(en.HandleEvent)
			case "appended":
				app = &appender{en: en, sink: f}
				h = app
			}
			em := trace.NewEmitter(tbl, h)
			body(em)
			em.Flush()
			if app != nil {
				app.flush()
			}
			paths = append(paths, path{mode, f, en})
		}

		events := paths[0].en.Counter.Refs() + paths[0].en.Counter.Allocs + paths[0].en.Counter.Frees
		for _, p := range paths {
			recs := p.sinks.recs.recs
			var covered uint64
			capped, zeroSize := 0, 0
			for i := range recs {
				covered += uint64(recs[i].More) + 1
				if recs[i].More == 255 {
					capped++
				}
				if recs[i].Kind <= trace.Store && recs[i].Size == 0 {
					zeroSize++
					if recs[i].More != 0 {
						t.Fatalf("seed %d %s: a zero-size access folded", seed, p.name)
					}
				}
			}
			t.Logf("seed %d %s: %d events in %d records, %d at the cap", seed, p.name, events, len(recs), capped)
			if covered != events {
				t.Fatalf("seed %d %s: records cover %d events, the stream has %d", seed, p.name, covered, events)
			}
			if p.name == "single" && uint64(len(recs)) != events {
				t.Fatalf("seed %d: single-event batches folded: %d records for %d events", seed, len(recs), events)
			}
			if p.name != "single" && (capped == 0 || zeroSize == 0) {
				t.Fatalf("seed %d %s: %d runs at the cap and %d zero-size accesses; the stream misses a case", seed, p.name, capped, zeroSize)
			}
		}

		var want [][]byte
		for _, finish := range paths[0].sinks.finish {
			want = append(want, finish())
		}
		for _, p := range paths[1:] {
			for i, name := range p.sinks.names {
				if got := p.sinks.finish[i](); !bytes.Equal(got, want[i]) {
					t.Errorf("seed %d %s: %s differs from single-event records (%d vs %d bytes)", seed, p.name, name, len(got), len(want[i]))
				}
			}
		}
	}
}
