// Command ccdp runs the full cache-conscious data placement pipeline on
// one workload and reports the result, with optional diagnostics about the
// profile, the placement, and the custom allocator's behaviour.
//
// Usage:
//
//	ccdp -workload compress [-v] [-random] [-scale 1.0] [-parallel N]
//	     [-record dir | -replay dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/object"
	"repro/internal/persist"
	"repro/internal/placement"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trg"
	"repro/internal/workload"
)

func main() {
	var cc cliconfig.Common
	cc.RegisterParallel(flag.CommandLine)
	cc.RegisterTrace(flag.CommandLine)
	cc.RegisterLedger(flag.CommandLine)
	name := flag.String("workload", "compress", "workload to optimise")
	verbose := flag.Bool("v", false, "print profile/placement diagnostics")
	withRandom := flag.Bool("random", false, "also evaluate the random-layout control")
	scale := flag.Float64("scale", 1.0, "burst-count multiplier")
	loadProfile := flag.String("load-profile", "", "read the profile from this file instead of profiling")
	loadPlacement := flag.String("load-placement", "", "read the placement map from this file instead of placing")
	explainMisses := flag.Bool("explain-misses", false, "run the simulator in attribution mode and print per-set miss heatmaps and top conflict pairs for every evaluated pass")
	flag.Parse()

	w, err := workload.Get(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := sim.DefaultOptions()
	opts.Parallelism = cc.EffectiveParallel()
	opts.Attribution = *explainMisses
	layouts := []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP}
	if *withRandom {
		layouts = append(layouts, sim.LayoutRandom)
	}
	train, test := w.Train(), w.Test()
	train.Bursts = int(float64(train.Bursts) * *scale)
	test.Bursts = int(float64(test.Bursts) * *scale)

	if (*loadProfile == "") != (*loadPlacement == "") {
		fmt.Fprintln(os.Stderr, "ccdp: -load-profile and -load-placement must be used together")
		os.Exit(2)
	}
	tc, err := cc.TraceConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccdp:", err)
		os.Exit(2)
	}
	if tc.Enabled() && *loadProfile != "" {
		fmt.Fprintln(os.Stderr, "ccdp: -record/-replay/-trace-dir cannot combine with -load-profile")
		os.Exit(2)
	}
	var lw *ledger.Writer
	if cc.Ledger != "" {
		lw, err = ledger.Create(cc.Ledger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccdp:", err)
			os.Exit(2)
		}
		lw.RunStart(ledger.RunStart{
			Tool: "ccdp", Scale: *scale, Parallelism: opts.Parallelism,
			Workloads: []string{w.Name()}, Cache: opts.Cache.String(),
		})
	}
	start := time.Now()
	var cmp *core.Comparison
	if *loadProfile != "" {
		cmp, err = runFromFiles(w, opts, layouts, []workload.Input{train, test},
			*loadProfile, *loadPlacement)
	} else {
		cmp, err = core.RunExperiment(core.Experiment{
			Workload: w, Options: opts, Layouts: layouts,
			Inputs: []workload.Input{train, test}, Trace: tc, Ledger: lw,
		})
	}
	if err != nil {
		lw.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cc.TraceDir != "" {
		// Store-managed mode gets the housekeeping pass: pack small
		// shards, enforce -trace-max-bytes, sweep crash debris.
		if err := sim.MaintainTraceDir(tc, nil); err != nil {
			fmt.Fprintln(os.Stderr, "ccdp: trace store maintenance:", err)
			os.Exit(2)
		}
	}
	if lw != nil {
		lw.RunEnd(ledger.RunEnd{
			Workloads:            1,
			AvgTrainReductionPct: cmp.Reduction("train"),
			AvgTestReductionPct:  cmp.Reduction("test"),
			WallNs:               time.Since(start).Nanoseconds(),
		})
		if err := lw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ccdp: ledger:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "ledger written:", cc.Ledger)
	}

	fmt.Printf("%s — %s\n\n", w.Name(), w.Description())
	if *verbose {
		printProfile(cmp)
		printPlacement(cmp)
	}
	for _, input := range []string{"train", "test"} {
		fmt.Printf("%s input:\n", input)
		for _, kind := range layouts {
			r := cmp.Result(input, kind)
			if r == nil {
				continue
			}
			fmt.Printf("  %-8s miss %6.2f%%  (stack %5.2f  global %5.2f  heap %5.2f  const %5.2f)",
				kind, r.MissRate(),
				r.Stats.CategoryMissRate(object.Stack),
				r.Stats.CategoryMissRate(object.Global),
				r.Stats.CategoryMissRate(object.Heap),
				r.Stats.CategoryMissRate(object.Constant))
			if kind == sim.LayoutCCDP && w.HeapPlacement() {
				as := r.AllocStats
				fmt.Printf("  [allocs %d hits %d bins %d pref %d brk %d]",
					as.Allocs, as.TableHits, as.BinAllocs, as.PrefPlaced, as.BrkExtends)
			}
			fmt.Println()
		}
		fmt.Printf("  CCDP reduction: %.2f%%\n\n", cmp.Reduction(input))
	}
	if *explainMisses {
		printAttribution(cmp, layouts)
	}
}

// printAttribution renders the miss-attribution view of every evaluated
// pass: the per-set miss heatmap, the hottest sets, and the heaviest
// (victim, evictor) conflict pairs with their object names.
func printAttribution(cmp *core.Comparison, layouts []sim.LayoutKind) {
	for _, input := range []string{"train", "test"} {
		for _, kind := range layouts {
			r := cmp.Result(input, kind)
			if r == nil || r.Attribution == nil {
				continue
			}
			fmt.Printf("=== miss attribution: %s/%s ===\n", input, kind)
			fmt.Print(report.Heatmap(r.Attribution, 64))
			fmt.Printf("hottest sets:\n%s", report.TopSets(r.Attribution, 8))
			fmt.Printf("top conflict pairs:\n%s\n", report.TopConflicts(r.Attribution, r.Objects, 10))
		}
	}
}

func printProfile(cmp *core.Comparison) {
	g := cmp.Profile.Profile.Graph
	fmt.Printf("profile: %v, %d refs\n", g, cmp.Profile.Profile.TotalRefs)
	var popular, heapNodes, nonUnique int
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(trg.NodeID(i))
		if n.Popular {
			popular++
		}
		if n.Category == object.Heap {
			heapNodes++
			if n.NonUniqueXOR {
				nonUnique++
			}
		}
	}
	fmt.Printf("nodes: %d total, %d popular, %d heap names (%d non-unique)\n",
		g.NumNodes(), popular, heapNodes, nonUnique)
}

func printPlacement(cmp *core.Comparison) {
	m := cmp.Placement
	fmt.Printf("placement: %d global slots over %d bytes, stack at %#x, %d heap plans in %d bins, predicted conflict %d\n",
		len(m.GlobalLayout), m.GlobalSegSize, uint64(m.StackStart),
		len(m.HeapPlans), m.NumBins, m.PredictedConflict)
	var withPref, withBin int
	for _, p := range m.HeapPlans {
		if p.PrefOffset != placement.NoPreference {
			withPref++
		}
		if p.Bin >= 0 {
			withBin++
		}
	}
	fmt.Printf("heap plans: %d with preferred offset, %d with bin tag\n\n", withPref, withBin)
}

// runFromFiles evaluates the requested layouts using a profile and
// placement map saved earlier (e.g. by trgdump), the offline-toolchain
// path: no profiling pass runs in this process.
func runFromFiles(w workload.Workload, opts sim.Options, layouts []sim.LayoutKind,
	inputs []workload.Input, profilePath, placementPath string) (*core.Comparison, error) {
	pf, err := os.Open(profilePath)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	var prof *profile.Profile
	if prof, err = persist.ReadProfile(pf); err != nil {
		return nil, err
	}
	mf, err := os.Open(placementPath)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	pm, err := persist.ReadPlacement(mf)
	if err != nil {
		return nil, err
	}
	pr := &sim.ProfileResult{Profile: prof}
	cmp := &core.Comparison{
		Workload:  w,
		Options:   opts,
		Profile:   pr,
		Placement: pm,
		Results:   make(map[string]map[sim.LayoutKind]*sim.EvalResult),
	}
	groups := make([]sim.GroupSpec, len(layouts))
	for i, kind := range layouts {
		groups[i].Layout = kind
	}
	for _, in := range inputs {
		res, err := sim.Run(sim.Live(w, in, opts), sim.Pass{
			Workload: w.Name(), Input: in, HeapPlace: w.HeapPlacement(), Profile: pr, Placement: pm, Groups: groups,
		}, opts)
		if err != nil {
			return nil, err
		}
		byLayout := make(map[sim.LayoutKind]*sim.EvalResult, len(layouts))
		for i, kind := range layouts {
			byLayout[kind] = res[i][0].Eval
		}
		cmp.Results[in.Label] = byLayout
	}
	return cmp, nil
}
