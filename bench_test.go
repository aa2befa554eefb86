package repro

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations over the design parameters DESIGN.md
// calls out. Each benchmark regenerates its artifact end to end (profile ->
// placement -> evaluation) at a reduced trace scale and reports the
// headline quantity of that artifact as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's results table by table.

import (
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xorname"
)

// benchScale trades fidelity for runtime in the bench harness. It is the
// same reduced scale cmd/ccdpbench and the CI bench gate run at, so the
// benchmarks here and the gated artifact measure identical pipelines.
const benchScale = benchsuite.DefaultScale

func scaledInputs(w workload.Workload, scale float64) []workload.Input {
	return benchsuite.ScaledInputs(w, scale)
}

// runSuite runs every workload through the pipeline with the given layouts.
func runSuite(b *testing.B, opts sim.Options, layouts []sim.LayoutKind) []*core.Comparison {
	b.Helper()
	cmps, err := benchsuite.RunSuite(opts, layouts, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return cmps
}

func avgReduction(cmps []*core.Comparison, input string) float64 {
	return benchsuite.AvgReduction(cmps, input)
}

// BenchmarkTable1Stats regenerates Table 1: per-program, per-input workload
// statistics (reference counts, segment mix, allocation behaviour).
func BenchmarkTable1Stats(b *testing.B) {
	opts := sim.DefaultOptions()
	for i := 0; i < b.N; i++ {
		cmps := runSuite(b, opts, []sim.LayoutKind{sim.LayoutNatural})
		if out := report.Table1(cmps); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2SameInput regenerates Table 2: original vs CCDP miss rates
// with the train input used for both the profile and the measurement.
func BenchmarkTable2SameInput(b *testing.B) {
	opts := sim.DefaultOptions()
	var red float64
	for i := 0; i < b.N; i++ {
		cmps := runSuite(b, opts, nil)
		red = avgReduction(cmps, "train")
		if out := report.Table2(cmps); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(red, "%avg-reduction")
}

// BenchmarkTable3SizeBreakdown regenerates Table 3: references broken down
// by object size bucket.
func BenchmarkTable3SizeBreakdown(b *testing.B) {
	opts := sim.DefaultOptions()
	for i := 0; i < b.N; i++ {
		cmps := runSuite(b, opts, []sim.LayoutKind{sim.LayoutNatural})
		if out := report.Table3(cmps); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4CrossInput regenerates Table 4 — the paper's headline
// experiment: placement trained on one input, measured on the other.
func BenchmarkTable4CrossInput(b *testing.B) {
	opts := sim.DefaultOptions()
	var red float64
	for i := 0; i < b.N; i++ {
		cmps := runSuite(b, opts, nil)
		red = avgReduction(cmps, "test")
		if out := report.Table4(cmps); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(red, "%avg-reduction")
}

// BenchmarkTable5Paging regenerates Table 5: total pages and working-set
// size under original and CCDP placement for the heap programs.
func BenchmarkTable5Paging(b *testing.B) {
	opts := sim.DefaultOptions()
	opts.TrackPages = true
	for i := 0; i < b.N; i++ {
		var cmps []*core.Comparison
		for _, name := range []string{"deltablue", "espresso", "gcc", "groff"} {
			w, err := workload.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			cmp, err := core.Run(w, opts, nil, scaledInputs(w, benchScale))
			if err != nil {
				b.Fatal(err)
			}
			cmps = append(cmps, cmp)
		}
		if out := report.Table5(cmps); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure3HeapScatter regenerates Figure 3: the per-heap-object
// scatter of miss rate versus reference count for the heap programs.
func BenchmarkFigure3HeapScatter(b *testing.B) {
	opts := sim.DefaultOptions()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"deltablue", "espresso", "gcc", "groff"} {
			w, err := workload.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			cmp, err := core.Run(w, opts, []sim.LayoutKind{sim.LayoutNatural},
				scaledInputs(w, benchScale)[:1])
			if err != nil {
				b.Fatal(err)
			}
			if out := report.Figure3(cmp); len(out) == 0 {
				b.Fatal("empty figure")
			}
		}
	}
}

// BenchmarkRandomPlacement regenerates the section 5.1 control experiment:
// random placement versus natural versus CCDP. The reported metric is the
// random/natural miss-ratio average (the paper found >= 1.2x).
func BenchmarkRandomPlacement(b *testing.B) {
	opts := sim.DefaultOptions()
	layouts := []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP, sim.LayoutRandom}
	var ratio float64
	for i := 0; i < b.N; i++ {
		cmps := runSuite(b, opts, layouts)
		var sum float64
		for _, c := range cmps {
			nat := c.Result("test", sim.LayoutNatural)
			rnd := c.Result("test", sim.LayoutRandom)
			if nat.MissRate() > 0 {
				sum += rnd.MissRate() / nat.MissRate()
			}
		}
		ratio = sum / float64(len(cmps))
		if out := report.RandomTable(cmps); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(ratio, "rand/nat-ratio")
}

// BenchmarkCacheSweep regenerates the section 5.2 study: one placement
// (trained for 8K direct-mapped) evaluated across cache geometries,
// including associative caches.
func BenchmarkCacheSweep(b *testing.B) {
	targets := []cache.Config{
		{Size: 4 * 1024, BlockSize: 32, Assoc: 1},
		{Size: 8 * 1024, BlockSize: 32, Assoc: 1},
		{Size: 16 * 1024, BlockSize: 32, Assoc: 1},
		{Size: 8 * 1024, BlockSize: 32, Assoc: 2},
	}
	opts := sim.DefaultOptions()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"espresso", "compress", "m88ksim"} {
			w, err := workload.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			ins := scaledInputs(w, benchScale)
			pr, err := sim.ProfilePass(w, ins[0], opts)
			if err != nil {
				b.Fatal(err)
			}
			pm, err := sim.Place(w, pr, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, cc := range targets {
				evalOpts := opts
				evalOpts.Cache = cc
				if _, err := sim.EvalFrom(sim.Live(w, ins[1], evalOpts), w.Name(), w.HeapPlacement(), ins[1], sim.LayoutCCDP, pr, pm, evalOpts, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// ablate runs one workload's cross-input pipeline under modified options
// and returns the test-input reduction.
func ablate(b *testing.B, name string, mutate func(*sim.Options)) float64 {
	b.Helper()
	w, err := workload.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.DefaultOptions()
	mutate(&opts)
	cmp, err := core.Run(w, opts, nil, scaledInputs(w, benchScale))
	if err != nil {
		b.Fatal(err)
	}
	return cmp.Reduction("test")
}

// BenchmarkAblationQueueThreshold varies the TRG recency-queue cap (the
// paper uses 2x the cache size).
func BenchmarkAblationQueueThreshold(b *testing.B) {
	for _, mult := range []int64{1, 2, 4} {
		b.Run(map[int64]string{1: "1x-cache", 2: "2x-cache", 4: "4x-cache"}[mult], func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablate(b, "compress", func(o *sim.Options) {
					o.Profile.QueueThreshold = mult * o.Cache.Size
				})
			}
			b.ReportMetric(red, "%reduction")
		})
	}
}

// BenchmarkAblationChunkSize varies the TRG chunk granularity (paper: 256).
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, cs := range []int64{64, 256, 1024} {
		b.Run(map[int64]string{64: "64B", 256: "256B", 1024: "1KB"}[cs], func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablate(b, "m88ksim", func(o *sim.Options) {
					o.Profile.ChunkSize = cs
				})
			}
			b.ReportMetric(red, "%reduction")
		})
	}
}

// BenchmarkAblationNameDepth varies the XOR naming depth (paper: 4; Seidl &
// Zorn found 3-4 works and deeper over-specialises).
func BenchmarkAblationNameDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 6} {
		b.Run(map[int]string{1: "depth1", 2: "depth2", 4: "depth4", 6: "depth6"}[depth], func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablate(b, "espresso", func(o *sim.Options) {
					o.NameDepth = depth
				})
			}
			b.ReportMetric(red, "%reduction")
		})
	}
}

// BenchmarkAblationPopularity varies the phase-0 popularity cutoff
// (paper: objects covering 99% of total popularity).
func BenchmarkAblationPopularity(b *testing.B) {
	for _, cut := range []float64{0.90, 0.99, 1.0} {
		b.Run(map[float64]string{0.90: "90pct", 0.99: "99pct", 1.0: "100pct"}[cut], func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablate(b, "go", func(o *sim.Options) {
					o.Profile.PopularityCutoff = cut
				})
			}
			b.ReportMetric(red, "%reduction")
		})
	}
}

// BenchmarkAblationAllocator compares first-fit against temporal-fit as
// the standalone heap policy on the heap-heavy deltablue model.
func BenchmarkAblationAllocator(b *testing.B) {
	w, err := workload.Get("deltablue")
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.DefaultOptions()
	in := scaledInputs(w, benchScale)[0]
	b.Run("first-fit", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			res, err := sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, sim.LayoutNatural, nil, nil, opts, 0)
			if err != nil {
				b.Fatal(err)
			}
			rate = res.MissRate()
		}
		b.ReportMetric(rate, "%missrate")
	})
	b.Run("ccdp-temporal-fit", func(b *testing.B) {
		pr, err := sim.ProfilePass(w, in, opts)
		if err != nil {
			b.Fatal(err)
		}
		pm, err := sim.Place(w, pr, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var rate float64
		for i := 0; i < b.N; i++ {
			res, err := sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, sim.LayoutCCDP, pr, pm, opts, 0)
			if err != nil {
				b.Fatal(err)
			}
			rate = res.MissRate()
		}
		b.ReportMetric(rate, "%missrate")
	})
}

// BenchmarkProfilePass measures the profiler alone (TRG construction is
// the pipeline's dominant cost).
func BenchmarkProfilePass(b *testing.B) {
	w, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.DefaultOptions()
	in := scaledInputs(w, benchScale)[0]
	for i := 0; i < b.N; i++ {
		if _, err := sim.ProfilePass(w, in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementCompute measures the placement algorithm alone.
func BenchmarkPlacementCompute(b *testing.B) {
	w, err := workload.Get("go")
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.DefaultOptions()
	pr, err := sim.ProfilePass(w, scaledInputs(w, benchScale)[0], opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Place(w, pr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSimulator measures raw simulation throughput.
func BenchmarkCacheSimulator(b *testing.B) {
	w, err := workload.Get("mgrid")
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.DefaultOptions()
	in := scaledInputs(w, benchScale)[0]
	for i := 0; i < b.N; i++ {
		if _, err := sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, sim.LayoutNatural, nil, nil, opts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXORFold measures the naming primitive the custom malloc relies
// on being nearly free (the paper's constraint 2).
func BenchmarkXORFold(b *testing.B) {
	stack := []uint64{0x401000, 0x402000, 0x403000, 0x404000, 0x405000}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= xorname.Fold(stack, xorname.DefaultDepth)
	}
	_ = sink
}

// TestBenchHarnessSmoke keeps the bench file honest under plain `go test`:
// the suite helpers must work at tiny scale.
func TestBenchHarnessSmoke(t *testing.T) {
	w, err := workload.Get("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	ins := scaledInputs(w, 0.02)
	cmp, err := core.Run(w, opts, nil, ins[:1])
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Result("train", sim.LayoutNatural) == nil {
		t.Fatal("suite helper produced no result")
	}
	if profile.DefaultConfig(8192).ChunkSize != 256 {
		t.Fatal("paper parameters drifted")
	}
}

// BenchmarkAblationSampling varies time-sampled profiling (section 5.2's
// suggested cost reduction): what fraction of references must feed the
// TRG queue to retain the placement quality?
func BenchmarkAblationSampling(b *testing.B) {
	fractions := []struct {
		name   string
		window uint64
		period uint64
	}{
		{name: "full", window: 0, period: 0},
		{name: "25pct", window: 2500, period: 10000},
		{name: "10pct", window: 1000, period: 10000},
	}
	for _, f := range fractions {
		f := f
		b.Run(f.name, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablate(b, "compress", func(o *sim.Options) {
					o.Profile.SampleWindow = f.window
					o.Profile.SamplePeriod = f.period
				})
			}
			b.ReportMetric(red, "%reduction")
		})
	}
}

// BenchmarkAblationBlockSize varies the cache line size (the paper fixes
// 32 bytes): longer lines capture more spatial locality but raise the
// conflict cost of each overlap.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []int64{16, 32, 64} {
		b.Run(map[int64]string{16: "16B", 32: "32B", 64: "64B"}[bs], func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablate(b, "m88ksim", func(o *sim.Options) {
					o.Cache.BlockSize = bs
					o.Placement.Cache.BlockSize = bs
				})
			}
			b.ReportMetric(red, "%reduction")
		})
	}
}
