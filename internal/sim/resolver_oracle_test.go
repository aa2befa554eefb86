package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/heapsim"
	"repro/internal/hierarchy"
	"repro/internal/layout"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/vmpage"
	"repro/internal/workload"
)

// refResolver is a deliberately naive reference for the evaluation
// harness (Enricher + Group). It takes events one at a time, reads the
// object table on every event, resolves statics through layout.Addr per
// reference, keeps heap addresses in a map, drives the cache through its
// self-tallying Access/Write, and counts the stream with its own
// trace.Counter, whose reference total doubles as the allocator clock. It
// shares no resolution code with the production path, so refactors of
// that path are checked against something other than their own output.
type refResolver struct {
	objs    *object.Table
	lay     *layout.Layout
	alloc   heapsim.Allocator
	cs      *cache.Sim
	hs      *hierarchy.Sim
	pages   *vmpage.Tracker
	counter *trace.Counter
	heap    map[object.ID]addrspace.Addr
}

func (r *refResolver) HandleEvent(ev trace.Event) {
	r.counter.HandleEvent(ev)
	in := r.objs.Get(ev.Obj)
	now := r.counter.Refs()
	switch ev.Kind {
	case trace.Load, trace.Store:
		var addr addrspace.Addr
		if in.Category == object.Heap {
			addr = r.heap[ev.Obj]
		} else {
			addr = r.lay.Addr(in)
		}
		addr += addrspace.Addr(ev.Off)
		store := ev.Kind == trace.Store
		switch {
		case r.cs != nil && store:
			r.cs.Write(addr, ev.Size, in.Category, ev.Obj)
		case r.cs != nil:
			r.cs.Access(addr, ev.Size, in.Category, ev.Obj)
		case store:
			r.hs.Write(addr, ev.Size, in.Category, ev.Obj)
		default:
			r.hs.Access(addr, ev.Size, in.Category, ev.Obj)
		}
		if r.pages != nil {
			r.pages.Touch(addr, ev.Size)
		}
	case trace.Alloc:
		r.heap[ev.Obj] = r.alloc.Alloc(ev.Size, in.XORName, now)
	case trace.Free:
		r.alloc.Free(r.heap[ev.Obj], in.Size, now)
		delete(r.heap, ev.Obj)
	}
}

// oracleCase is one evaluation configuration the oracle is held to.
type oracleCase struct {
	kind      LayoutKind
	heapPlace bool
	fit       string
	pages     bool
	attrib    bool
}

func (c oracleCase) String() string {
	return fmt.Sprintf("%s/place=%v/fit=%s/pages=%v/attrib=%v", c.kind, c.heapPlace, c.fit, c.pages, c.attrib)
}

// newRefResolver builds the oracle's layout and allocator straight from
// the layout and heapsim constructors, without BuildLayout.
func newRefResolver(t *testing.T, table *object.Table, c oracleCase, pr *ProfileResult, pm *placement.Map, opts Options) *refResolver {
	t.Helper()
	fitAlloc := func() heapsim.Allocator {
		if c.fit == "temporal" {
			return heapsim.NewTemporalFit()
		}
		return heapsim.NewFirstFit()
	}
	r := &refResolver{objs: table, counter: trace.NewCounter(table), heap: map[object.ID]addrspace.Addr{}}
	switch c.kind {
	case LayoutNatural:
		r.lay, r.alloc = layout.Natural(table), fitAlloc()
	case LayoutRandom:
		r.lay, r.alloc = layout.Random(table, opts.RandomSeed), heapsim.NewRandomFit(opts.RandomSeed+1)
	case LayoutCCDP:
		var err error
		if r.lay, err = layout.FromPlacement(table, pr.Profile, pm); err != nil {
			t.Fatal(err)
		}
		if c.heapPlace {
			r.alloc = heapsim.NewCustom(pm)
		} else {
			r.alloc = fitAlloc()
		}
	}
	return r
}

// oracleOptions is the configuration both sides of a case run under.
func oracleOptions(c oracleCase) Options {
	opts := DefaultOptions()
	opts.HeapFit = c.fit
	opts.TrackPages = c.pages
	if c.attrib {
		opts.Attribution = true
		opts.Classify = true
	}
	return opts
}

// TestEvalMatchesNaiveResolver holds EvalFrom to the naive reference
// resolver, byte for byte through EncodeEvalResult, across layouts,
// allocator variants, heap placement on and off, page tracking and miss
// attribution.
func TestEvalMatchesNaiveResolver(t *testing.T) {
	cases := []oracleCase{
		{kind: LayoutNatural, fit: "first"},
		{kind: LayoutNatural, fit: "temporal", pages: true},
		{kind: LayoutRandom, fit: "first", attrib: true},
		{kind: LayoutCCDP, heapPlace: true, fit: "first", pages: true},
		{kind: LayoutCCDP, heapPlace: true, fit: "first", attrib: true},
		{kind: LayoutCCDP, heapPlace: false, fit: "first"},
		{kind: LayoutCCDP, heapPlace: false, fit: "temporal", attrib: true},
	}
	for _, name := range []string{"gcc", "espresso", "compress"} {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		train, test := quickInput(w, 0.05), quickTestInput(w, 0.05)
		pr, err := ProfilePass(w, train, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pm, err := Place(w, pr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(name+"/"+c.String(), func(t *testing.T) {
				opts := oracleOptions(c)
				got, err := EvalFrom(Live(w, test, opts), name, c.heapPlace, test, c.kind, pr, pm, opts, 0)
				if err != nil {
					t.Fatal(err)
				}

				src := Live(w, test, opts)
				ref := newRefResolver(t, src.Objects(), c, pr, pm, opts)
				if ref.cs, err = cache.New(opts.Cache, opts.Classify); err != nil {
					t.Fatal(err)
				}
				if c.attrib {
					ref.cs.SetAttribution(cache.NewAttribution(opts.Cache, opts.AttributionPairs))
				}
				ref.cs.PresizeObjects(src.Objects().Len())
				if c.pages {
					ref.pages = vmpage.NewTracker(opts.PageWindowFrac)
				}
				if err := src.Drive(ref); err != nil {
					t.Fatal(err)
				}
				want := &EvalResult{
					Layout:      c.kind,
					Stats:       ref.cs.Stats(),
					Counter:     ref.counter,
					AllocStats:  ref.alloc.Stats(),
					Attribution: ref.cs.Attribution().Stats(),
				}
				want.ObjRefs, want.ObjMisses = ref.cs.ObjectStats()
				if c.pages {
					want.TotalPages, want.WorkingSet = ref.pages.TotalPages(), ref.pages.WorkingSet()
					if want.TotalPages == 0 {
						t.Fatal("oracle tracked no pages")
					}
				}
				if g, w := EncodeEvalResult(got), EncodeEvalResult(want); !bytes.Equal(g, w) {
					t.Fatalf("EvalFrom diverged from the naive resolver:\n--- EvalFrom ---\n%s--- oracle ---\n%s", g, w)
				}
			})
		}
	}
}

// TestEvalHierarchyMatchesNaiveResolver is the oracle's hierarchy case.
func TestEvalHierarchyMatchesNaiveResolver(t *testing.T) {
	w, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	c := oracleCase{kind: LayoutCCDP, heapPlace: true, fit: "first", attrib: true}
	opts := oracleOptions(c)
	opts.Classify = false
	train, test := quickInput(w, 0.05), quickTestInput(w, 0.05)
	pr, err := ProfilePass(w, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := hierarchy.DefaultConfig()
	res, err := Run(Live(w, test, opts), Pass{
		Workload: "gcc", Input: test, HeapPlace: true, Profile: pr, Placement: pm,
		Groups: []GroupSpec{{Layout: LayoutCCDP, Members: []Member{{Hier: &hcfg}}}},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := res[0][0].Hier

	src := Live(w, test, opts)
	ref := newRefResolver(t, src.Objects(), c, pr, pm, opts)
	if ref.hs, err = hierarchy.New(hcfg); err != nil {
		t.Fatal(err)
	}
	ref.hs.SetAttribution(cache.NewAttribution(hcfg.L1, opts.AttributionPairs))
	if err := src.Drive(ref); err != nil {
		t.Fatal(err)
	}
	want := &HierarchyResult{Layout: LayoutCCDP, Stats: ref.hs.Stats(), Attribution: ref.hs.Attribution().Stats()}
	if g, w := EncodeHierarchyResult(got), EncodeHierarchyResult(want); !bytes.Equal(g, w) {
		t.Fatalf("Run diverged from the naive resolver:\n--- Run ---\n%s--- oracle ---\n%s", g, w)
	}
}
