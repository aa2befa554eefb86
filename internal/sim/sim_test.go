package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/workload"
)

// evalLive is one independent live pass of one layout.
func evalLive(w workload.Workload, in workload.Input, kind LayoutKind, pr *ProfileResult, pm *placement.Map, opts Options) (*EvalResult, error) {
	return EvalFrom(Live(w, in, opts), w.Name(), w.HeapPlacement(), in, kind, pr, pm, opts, 0)
}

// hierLive is one independent live pass of one layout through an
// L1+L2+TLB hierarchy.
func hierLive(w workload.Workload, in workload.Input, kind LayoutKind, pr *ProfileResult, pm *placement.Map, hcfg hierarchy.Config, opts Options) (*HierarchyResult, error) {
	res, err := Run(Live(w, in, opts), Pass{
		Workload: w.Name(), Input: in, HeapPlace: w.HeapPlacement(), Profile: pr, Placement: pm,
		Groups: []GroupSpec{{Layout: kind, Members: []Member{{Hier: &hcfg}}}},
	}, opts)
	if err != nil {
		return nil, err
	}
	return res[0][0].Hier, nil
}

// countRefs drives src into a plain trace.Counter and returns its
// reference count.
func countRefs(t *testing.T, src EventStream) uint64 {
	t.Helper()
	defer src.Close()
	c := trace.NewCounter(src.Objects())
	if err := src.Drive(c); err != nil {
		t.Fatal(err)
	}
	return c.Refs()
}

func quickInput(w workload.Workload, frac float64) workload.Input {
	in := w.Train()
	in.Bursts = int(float64(in.Bursts) * frac)
	return in
}

func quickTestInput(w workload.Workload, frac float64) workload.Input {
	in := w.Test()
	in.Bursts = int(float64(in.Bursts) * frac)
	return in
}

func TestProfilePassProducesProfile(t *testing.T) {
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProfilePass(w, quickInput(w, 0.05), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Profile.TotalRefs == 0 {
		t.Fatal("profile saw no references")
	}
	if pr.Profile.Graph.NumEdges() == 0 {
		t.Fatal("TRG has no edges")
	}
	if pr.Counter.Refs() != pr.Profile.TotalRefs {
		t.Fatalf("counter %d vs profile %d refs", pr.Counter.Refs(), pr.Profile.TotalRefs)
	}
}

func TestEvalPassNatural(t *testing.T) {
	w, _ := workload.Get("compress")
	res, err := evalLive(w, quickInput(w, 0.05), LayoutNatural, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Accesses == 0 || res.Stats.Misses == 0 {
		t.Fatal("evaluation produced no accesses/misses")
	}
	if res.MissRate() <= 0 || res.MissRate() >= 100 {
		t.Fatalf("implausible miss rate %g", res.MissRate())
	}
}

func TestEvalPassDeterministic(t *testing.T) {
	w, _ := workload.Get("espresso")
	in := quickInput(w, 0.05)
	r1, err := evalLive(w, in, LayoutNatural, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := evalLive(w, in, LayoutNatural, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Misses != r2.Stats.Misses || r1.Stats.Accesses != r2.Stats.Accesses {
		t.Fatalf("nondeterministic evaluation: %d/%d vs %d/%d",
			r1.Stats.Misses, r1.Stats.Accesses, r2.Stats.Misses, r2.Stats.Accesses)
	}
}

func TestEvalPassCCDPRequiresProfile(t *testing.T) {
	w, _ := workload.Get("compress")
	if _, err := evalLive(w, quickInput(w, 0.01), LayoutCCDP, nil, nil, DefaultOptions()); err == nil {
		t.Fatal("CCDP evaluation without a profile did not error")
	}
}

func TestEvalPassUnknownLayout(t *testing.T) {
	w, _ := workload.Get("compress")
	if _, err := evalLive(w, quickInput(w, 0.01), LayoutKind("bogus"), nil, nil, DefaultOptions()); err == nil {
		t.Fatal("unknown layout accepted")
	}
}

func TestFullPipelineImprovesConflictWorkload(t *testing.T) {
	// m88ksim's natural layout has a hot module under the stack; the
	// pipeline must fix it, decisively.
	w, _ := workload.Get("m88ksim")
	opts := DefaultOptions()
	in := quickInput(w, 0.3)
	pr, err := ProfilePass(w, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := evalLive(w, in, LayoutNatural, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ccdp, err := evalLive(w, in, LayoutCCDP, pr, pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ccdp.MissRate() >= nat.MissRate() {
		t.Fatalf("CCDP (%.2f%%) did not beat natural (%.2f%%)", ccdp.MissRate(), nat.MissRate())
	}
	if red := 100 * (nat.MissRate() - ccdp.MissRate()) / nat.MissRate(); red < 20 {
		t.Fatalf("m88ksim reduction %.1f%%, want a decisive win (>= 20%%)", red)
	}
}

func TestMgridPlacementNeutral(t *testing.T) {
	// The paper's mgrid result: placement cannot help a single giant
	// object, but it must not hurt either.
	w, _ := workload.Get("mgrid")
	opts := DefaultOptions()
	in := quickInput(w, 0.2)
	pr, err := ProfilePass(w, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	nat, _ := evalLive(w, in, LayoutNatural, nil, nil, opts)
	ccdp, err := evalLive(w, in, LayoutCCDP, pr, pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	diff := ccdp.MissRate() - nat.MissRate()
	if diff > 0.5 || diff < -0.5 {
		t.Fatalf("mgrid moved %.2f points under CCDP; paper says ~0", diff)
	}
}

func TestCrossInputPlacement(t *testing.T) {
	// Train on one input, evaluate on the other — the paper's headline
	// experiment. The placement must transfer.
	w, _ := workload.Get("compress")
	opts := DefaultOptions()
	pr, err := ProfilePass(w, quickInput(w, 0.3), opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	testIn := quickTestInput(w, 0.3)
	nat, _ := evalLive(w, testIn, LayoutNatural, nil, nil, opts)
	ccdp, err := evalLive(w, testIn, LayoutCCDP, pr, pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ccdp.MissRate() >= nat.MissRate() {
		t.Fatalf("cross-input CCDP (%.2f%%) did not beat natural (%.2f%%)",
			ccdp.MissRate(), nat.MissRate())
	}
}

func TestHeapPlacementRespectsWorkloadFlag(t *testing.T) {
	// Place() must disable heap placement for programs the paper did not
	// apply it to, even when the options request it.
	w, _ := workload.Get("compress") // HeapPlacement() == false
	opts := DefaultOptions()
	opts.Placement.HeapPlacement = true
	pr, err := ProfilePass(w, quickInput(w, 0.02), opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.HeapPlans) != 0 {
		t.Fatalf("heap plans emitted for a no-heap-placement program: %d", len(pm.HeapPlans))
	}
}

func TestTrackPagesPopulatesPaging(t *testing.T) {
	w, _ := workload.Get("espresso")
	opts := DefaultOptions()
	opts.TrackPages = true
	res, err := evalLive(w, quickInput(w, 0.05), LayoutNatural, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPages == 0 {
		t.Fatal("page tracking produced no pages")
	}
	if res.WorkingSet <= 0 || res.WorkingSet > float64(res.TotalPages) {
		t.Fatalf("working set %.1f implausible vs %d total pages", res.WorkingSet, res.TotalPages)
	}
}

func TestCategoryRatesSumToTotal(t *testing.T) {
	w, _ := workload.Get("gcc")
	res, err := evalLive(w, quickInput(w, 0.05), LayoutNatural, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for c := 0; c < object.NumCategories; c++ {
		sum += res.Stats.CategoryMissRate(object.Category(c))
	}
	if d := sum - res.MissRate(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("category breakdown %.6f != total %.6f", sum, res.MissRate())
	}
}

func TestObjectStatsCoverHeapObjects(t *testing.T) {
	w, _ := workload.Get("deltablue")
	res, err := evalLive(w, quickInput(w, 0.05), LayoutNatural, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	heapWithRefs := 0
	res.Objects.ForEach(func(in *object.Info) {
		if in.Category == object.Heap && int(in.ID) < len(res.ObjRefs) && res.ObjRefs[in.ID] > 0 {
			heapWithRefs++
		}
	})
	if heapWithRefs == 0 {
		t.Fatal("no per-heap-object stats recorded (Figure 3 needs them)")
	}
}

func TestEvalHierarchy(t *testing.T) {
	w, _ := workload.Get("m88ksim")
	opts := DefaultOptions()
	in := quickInput(w, 0.1)
	pr, err := ProfilePass(w, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := hierarchy.DefaultConfig()
	nat, err := hierLive(w, in, LayoutNatural, nil, nil, hcfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ccdp, err := hierLive(w, in, LayoutCCDP, pr, pm, hcfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nat.Stats.L1.Accesses == 0 || nat.Stats.L2.Accesses == 0 {
		t.Fatal("hierarchy saw no traffic")
	}
	if nat.Stats.L2.Accesses != nat.Stats.L1.Misses {
		t.Fatalf("L2 accesses %d != L1 misses %d",
			nat.Stats.L2.Accesses, nat.Stats.L1.Misses)
	}
	if ccdp.Stats.L1.MissRate() >= nat.Stats.L1.MissRate() {
		t.Fatalf("hierarchy CCDP L1 %.2f%% did not beat natural %.2f%%",
			ccdp.Stats.L1.MissRate(), nat.Stats.L1.MissRate())
	}
	// Requesting CCDP without artifacts must error.
	if _, err := hierLive(w, in, LayoutCCDP, nil, nil, hcfg, opts); err == nil {
		t.Fatal("hierarchy CCDP without profile accepted")
	}
}

func TestAssociativeTargetPipeline(t *testing.T) {
	// Place FOR a 2-way cache and evaluate ON it: the set-granular
	// placement (paper section 5.2) must run end to end and not lose to
	// the natural layout.
	w, _ := workload.Get("m88ksim")
	opts := DefaultOptions()
	opts.Cache = cache.Config{Size: 8192, BlockSize: 32, Assoc: 2}
	opts.Placement.Cache = opts.Cache
	in := quickInput(w, 0.2)
	pr, err := ProfilePass(w, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Period() != 4096 {
		t.Fatalf("period %d, want 4096 for a 2-way 8K target", pm.Period())
	}
	nat, err := evalLive(w, in, LayoutNatural, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ccdp, err := evalLive(w, in, LayoutCCDP, pr, pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ccdp.MissRate() > nat.MissRate()*1.02 {
		t.Fatalf("2-way-targeted CCDP %.2f%% lost to natural %.2f%%",
			ccdp.MissRate(), nat.MissRate())
	}
}
