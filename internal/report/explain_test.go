package report

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/trg"
	"repro/internal/workload"
)

func smallPipeline(t *testing.T, name string) (*sim.ProfileResult, *sim.EvalResult, *sim.EvalResult, workload.Workload) {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.Classify = true
	in := w.Train()
	in.Bursts /= 20
	pr, err := sim.ProfilePass(w, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sim.Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, sim.LayoutNatural, nil, nil, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ccdp, err := sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, sim.LayoutCCDP, pr, pm, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {})
	_ = pm
	return pr, nat, ccdp, w
}

func TestTRGSummary(t *testing.T) {
	pr, _, _, _ := smallPipeline(t, "espresso")
	out := TRGSummary(pr.Profile, 10)
	for _, want := range []string{"profile:", "nodes:", "heaviest temporal relationships", "stack"} {
		if !strings.Contains(out, want) {
			t.Errorf("TRGSummary missing %q:\n%s", want, out)
		}
	}
}

func TestTRGSummaryDefaultTop(t *testing.T) {
	pr, _, _, _ := smallPipeline(t, "mgrid")
	if out := TRGSummary(pr.Profile, 0); !strings.Contains(out, "grid") {
		t.Errorf("summary missing the dominant object:\n%s", out)
	}
}

func TestPlacementSummary(t *testing.T) {
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	in := w.Train()
	in.Bursts /= 20
	pr, err := sim.ProfilePass(w, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sim.Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := PlacementSummary(pr.Profile, pm)
	for _, want := range []string{"stack start", "global segment", "htab", "cacheoff"} {
		if !strings.Contains(out, want) {
			t.Errorf("PlacementSummary missing %q:\n%s", want, out)
		}
	}
}

func TestClassTable(t *testing.T) {
	_, nat, ccdp, w := smallPipeline(t, "m88ksim")
	rows := map[string][2]*sim.EvalResult{w.Name(): {nat, ccdp}}
	out := ClassTable(rows, []string{w.Name()})
	for _, want := range []string{"compul", "confl", "m88ksim"} {
		if !strings.Contains(out, want) {
			t.Errorf("ClassTable missing %q:\n%s", want, out)
		}
	}
	// Rows with missing results are skipped, not crashed on.
	out = ClassTable(map[string][2]*sim.EvalResult{"x": {nil, nil}}, []string{"x", "y"})
	if strings.Contains(out, "x ") && strings.Contains(out, "NaN") {
		t.Error("ClassTable rendered a nil row")
	}
}

func TestPrefetchTable(t *testing.T) {
	_, nat, ccdp, w := smallPipeline(t, "compress")
	rows := map[string][4]*sim.EvalResult{w.Name(): {nat, nat, ccdp, ccdp}}
	out := PrefetchTable(rows, []string{w.Name()})
	if !strings.Contains(out, "compress") || !strings.Contains(out, "pf-hits") {
		t.Errorf("PrefetchTable malformed:\n%s", out)
	}
}

func TestHierarchyTable(t *testing.T) {
	w, err := workload.Get("fpppp")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	in := w.Train()
	in.Bursts /= 20
	hcfg := hierarchy.DefaultConfig()
	res, err := sim.Run(sim.Live(w, in, opts), sim.Pass{
		Workload: w.Name(), Input: in,
		Groups: []sim.GroupSpec{{Layout: sim.LayoutNatural, Members: []sim.Member{{Hier: &hcfg}}}},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	nat := res[0][0].Hier
	rows := map[string][2]*sim.HierarchyResult{w.Name(): {nat, nat}}
	out := HierarchyTable(rows, []string{w.Name()})
	if !strings.Contains(out, "fpppp") || !strings.Contains(out, "TLB") {
		t.Errorf("HierarchyTable malformed:\n%s", out)
	}
}

func TestNodeLabel(t *testing.T) {
	pr, _, _, _ := smallPipeline(t, "espresso")
	g := pr.Profile.Graph
	// Find the stack node (IDs are assigned in first-reference order, so
	// it is not necessarily node 0).
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(trg.NodeID(i))
		if n.Category == object.Stack {
			if lbl := nodeLabel(n); !strings.Contains(lbl, "stack") {
				t.Errorf("stack node label %q should mention the stack", lbl)
			}
			return
		}
	}
	t.Fatal("no stack node in profile")
}

var _ = cache.DefaultConfig // anchor the cache import used via sim options
