// Command tables regenerates every table and figure of the paper's
// evaluation section from the workload models.
//
// Usage:
//
//	tables [-json results.json] [-which all|1|2|3|4|5|fig3|random|sweep|hierarchy|classes|prefetch|victim] [-workloads a,b,c] [-scale 1.0]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/ledger"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	which := flag.String("which", "all", "what to print: all,1,2,3,4,5,fig3,random,sweep,hierarchy,classes,prefetch,victim")
	jsonOut := flag.String("json", "", "also write machine-readable results to this file")
	names := flag.String("workloads", "", "comma-separated workload subset (default: all nine)")
	scale := flag.Float64("scale", 1.0, "burst-count multiplier (smaller = faster, noisier)")
	fromLedger := flag.String("from-ledger", "", "re-render the run summary from a ledger JSONL file (no simulation) and exit")
	flag.Parse()

	if *fromLedger != "" {
		if err := renderLedger(*fromLedger); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var ws []workload.Workload
	if *names == "" {
		ws = workload.All()
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, err := workload.Get(strings.TrimSpace(n))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			ws = append(ws, w)
		}
	}

	opts := sim.DefaultOptions()
	opts.TrackPages = true

	wantRandom := *which == "all" || *which == "random"
	layouts := []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP}
	if wantRandom {
		layouts = append(layouts, sim.LayoutRandom)
	}

	// The per-workload pipelines are independent; fan them out.
	scaled := make([]workload.Workload, len(ws))
	for i, w := range ws {
		scaled[i] = scaledWorkload{Workload: w, frac: *scale}
	}
	fmt.Fprintf(os.Stderr, "running %d workloads...\n", len(scaled))
	cmps, errs := core.RunAll(scaled, opts, layouts, 0)
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f, cmps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", *jsonOut)
	}

	show := func(key string) bool { return *which == "all" || *which == key }
	if show("1") {
		fmt.Println(report.Table1(cmps))
	}
	if show("2") {
		fmt.Println(report.Table2(cmps))
	}
	if show("3") {
		fmt.Println(report.Table3(cmps))
	}
	if show("4") {
		fmt.Println(report.Table4(cmps))
	}
	if show("5") {
		fmt.Println(report.Table5(cmps))
	}
	if show("fig3") {
		for _, c := range cmps {
			if c.Workload.HeapPlacement() {
				fmt.Println(report.Figure3(c))
			}
		}
	}
	if show("random") {
		fmt.Println(report.RandomTable(cmps))
	}
	for _, t := range []struct {
		key string
		run func(ws []workload.Workload, scale float64) error
	}{{"sweep", runSweep}, {"hierarchy", runHierarchy}, {"classes", runClasses}, {"prefetch", runPrefetch}, {"victim", runVictim}} {
		if !show(t.key) {
			continue
		}
		if err := t.run(ws, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", t.key, err)
			os.Exit(1)
		}
	}
}

// renderLedger re-renders a recorded run's summary table from its ledger
// alone — the offline counterpart of ccdpbench's live summary, producing
// the same numbers from the same eval events.
func renderLedger(path string) error {
	run, err := ledger.ReplayFile(path)
	if err != nil {
		return err
	}
	if rs := run.Start; rs != nil {
		fmt.Printf("ledger: %s run", rs.Tool)
		if rs.SHA != "" {
			fmt.Printf(" @ %s", rs.SHA)
		}
		if rs.Scale != 0 {
			fmt.Printf(", scale %g", rs.Scale)
		}
		fmt.Printf(", %d events\n", run.Events)
	}
	fmt.Print(run.Summary())
	for i := range run.Sweeps {
		fmt.Println()
		fmt.Print(renderSweep(&run.Sweeps[i]))
	}
	if tbl := stageTable("stage latency (span events)", spanAggs(run.Spans)); tbl != "" {
		fmt.Println()
		fmt.Print(tbl)
	}
	for i := range run.Traces {
		fmt.Println()
		fmt.Print(renderTrace(&run.Traces[i]))
	}
	if re := run.End; re != nil {
		fmt.Printf("recorded averages: train %.2f%%, test %.2f%%, wall %v\n",
			re.AvgTrainReductionPct, re.AvgTestReductionPct,
			time.Duration(re.WallNs).Round(time.Millisecond))
	}
	return nil
}

// renderSweep re-renders one recorded sweep event through the same
// report renderers ccdpbench -sweep prints live, so the ledger alone
// reproduces the matrix and Pareto frontier.
func renderSweep(s *ledger.Sweep) string {
	rows := make([]report.SweepRow, len(s.Cells))
	for i, c := range s.Cells {
		rows[i] = report.SweepRow{
			Size: c.Size, Block: c.Block, Assoc: c.Assoc, L2: c.L2, TLB: c.TLB,
			Chunk: c.Chunk, Queue: c.Queue, Cutoff: c.Cutoff, Heap: c.Heap,
			Layout: c.Layout, Bytes: c.Bytes,
			Accesses: c.Accesses, Misses: c.Misses, MissRatePct: c.MissRatePct,
			Pareto: c.Pareto,
		}
	}
	var b strings.Builder
	title := fmt.Sprintf("%s/%s sweep (%d cells, %s engine, %.1f configs/sec)",
		s.Workload, s.Input, len(rows), s.Engine, s.ConfigsPerSec)
	b.WriteString(report.SweepMatrix(title, rows))
	b.WriteString("\n")
	b.WriteString(report.SweepPareto("pareto frontier (miss rate vs cache bytes)", rows))
	if s.Groups > 0 || s.PrepNs > 0 {
		fmt.Fprintf(&b, "prep: groups=%d prep_share_pct=%.1f peak_prep_bytes=%d prep_total_bytes=%d profiles_broadcast=%d profiles_deduped=%d\n",
			s.Groups, s.PrepSharePct, s.PeakPrepBytes, s.PrepBytesTotal,
			s.ProfilesBroadcast, s.ProfilesDeduped)
	}
	return b.String()
}

// stageAgg is one stage's latency census across a ledger's spans.
type stageAgg struct {
	stage string
	count int
	total time.Duration
	max   time.Duration
}

// spanAggs groups per-stage span events (ccdpbench ledgers) by stage.
func spanAggs(spans []ledger.Span) []stageAgg {
	byStage := make(map[string]*stageAgg)
	for _, s := range spans {
		addSpan(byStage, s.Stage, time.Duration(s.WallNs))
	}
	return sortedAggs(byStage)
}

// renderTrace renders one job's sealed span tree (ccdpd ledgers) as the
// same per-stage latency table, headed by the job's identity.
func renderTrace(tr *ledger.Trace) string {
	byStage := make(map[string]*stageAgg)
	for _, s := range tr.Spans {
		addSpan(byStage, s.Stage, time.Duration(s.EndNs-s.StartNs))
	}
	title := "trace"
	if tr.Job != "" {
		title = fmt.Sprintf("trace: %s %s -> %s", tr.Kind, tr.Job, tr.State)
	}
	return stageTable(title, sortedAggs(byStage))
}

func addSpan(byStage map[string]*stageAgg, stage string, d time.Duration) {
	a := byStage[stage]
	if a == nil {
		a = &stageAgg{stage: stage}
		byStage[stage] = a
	}
	a.count++
	a.total += d
	if d > a.max {
		a.max = d
	}
}

// sortedAggs orders the census by total time descending (ties by name),
// putting the stages that dominate the run's wall clock first.
func sortedAggs(byStage map[string]*stageAgg) []stageAgg {
	aggs := make([]stageAgg, 0, len(byStage))
	for _, a := range byStage {
		aggs = append(aggs, *a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].total != aggs[j].total {
			return aggs[i].total > aggs[j].total
		}
		return aggs[i].stage < aggs[j].stage
	})
	return aggs
}

// stageTable renders a per-stage latency census.
func stageTable(title string, aggs []stageAgg) string {
	if len(aggs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%-10s %6s %12s %12s %12s\n", "stage", "spans", "total", "avg", "max")
	for _, a := range aggs {
		avg := a.total / time.Duration(a.count)
		fmt.Fprintf(&b, "%-10s %6d %12s %12s %12s\n", a.stage, a.count,
			round(a.total), round(avg), round(a.max))
	}
	return b.String()
}

// round trims latencies to a readable precision without collapsing
// microsecond-scale stages to zero.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}

// runVictim prints the hardware-vs-software comparison: a small victim
// cache absorbs some of the same conflict misses CCDP removes.
func runVictim(ws []workload.Workload, scale float64) error {
	const entries = 4
	victim := sim.DefaultOptions().Cache
	victim.VictimEntries = entries
	rows, order, err := quads(ws, scale, victim)
	if err != nil {
		return err
	}
	fmt.Println(report.VictimTable(rows, order, entries))
	return nil
}

// runPrefetch prints the phase-5 prefetch interaction study.
func runPrefetch(ws []workload.Workload, scale float64) error {
	prefetch := sim.DefaultOptions().Cache
	prefetch.Prefetch = true
	rows, order, err := quads(ws, scale, prefetch)
	if err != nil {
		return err
	}
	fmt.Println(report.PrefetchTable(rows, order))
	return nil
}

// quads evaluates each program's natural and CCDP layouts on the default
// cache and on variant, in one pass per program: natural,
// natural+variant, CCDP, CCDP+variant.
func quads(ws []workload.Workload, scale float64, variant cache.Config) (map[string][4]*sim.EvalResult, []string, error) {
	opts := sim.DefaultOptions()
	rows := make(map[string][4]*sim.EvalResult)
	var order []string
	for _, w := range ws {
		res, err := tablePass(w, scale, opts, sim.Member{Cache: opts.Cache}, sim.Member{Cache: variant})
		if err != nil {
			return nil, nil, err
		}
		rows[w.Name()] = [4]*sim.EvalResult{res[0][0].Eval, res[0][1].Eval, res[1][0].Eval, res[1][1].Eval}
		order = append(order, w.Name())
	}
	return rows, order, nil
}

// scaledWorkload wraps a workload with burst-scaled inputs.
type scaledWorkload struct {
	workload.Workload
	frac float64
}

func (s scaledWorkload) Train() workload.Input { return s.Workload.Train().Scaled(s.frac) }
func (s scaledWorkload) Test() workload.Input  { return s.Workload.Test().Scaled(s.frac) }

// tablePass profiles and places w on its scaled train input, then
// evaluates the natural and CCDP layouts on its scaled test input in one
// pass: out[0] holds the natural group's members, out[1] the CCDP
// group's, in members order.
func tablePass(w workload.Workload, scale float64, opts sim.Options, members ...sim.Member) ([][]sim.MemberResult, error) {
	train, test := w.Train().Scaled(scale), w.Test().Scaled(scale)
	pr, err := sim.ProfilePass(w, train, opts)
	if err != nil {
		return nil, err
	}
	pm, err := sim.Place(w, pr, opts)
	if err != nil {
		return nil, err
	}
	return sim.Run(sim.Live(w, test, opts), sim.Pass{
		Workload: w.Name(), Input: test, HeapPlace: w.HeapPlacement(), Profile: pr, Placement: pm,
		Groups: []sim.GroupSpec{{Layout: sim.LayoutNatural, Members: members}, {Layout: sim.LayoutCCDP, Members: members}},
	}, opts)
}

// runClasses prints the three-C miss breakdown, original vs CCDP.
func runClasses(ws []workload.Workload, scale float64) error {
	opts := sim.DefaultOptions()
	opts.Classify = true
	rows := make(map[string][2]*sim.EvalResult)
	var order []string
	for _, w := range ws {
		res, err := tablePass(w, scale, opts)
		if err != nil {
			return err
		}
		rows[w.Name()] = [2]*sim.EvalResult{res[0][0].Eval, res[1][0].Eval}
		order = append(order, w.Name())
	}
	fmt.Println(report.ClassTable(rows, order))
	return nil
}

// runHierarchy reproduces the memory-hierarchy extension: the same
// placements evaluated through an L1 + L2 + TLB stack.
func runHierarchy(ws []workload.Workload, scale float64) error {
	rows, order, err := hierarchyRows(ws, scale)
	if err != nil {
		return err
	}
	fmt.Println(report.HierarchyTable(rows, order))
	return nil
}

// hierarchyRows evaluates each program's natural and CCDP layouts
// through the default hierarchy, in one pass per program.
func hierarchyRows(ws []workload.Workload, scale float64) (map[string][2]*sim.HierarchyResult, []string, error) {
	hcfg := hierarchy.DefaultConfig()
	rows := make(map[string][2]*sim.HierarchyResult)
	var order []string
	for _, w := range ws {
		res, err := tablePass(w, scale, sim.DefaultOptions(), sim.Member{Hier: &hcfg})
		if err != nil {
			return nil, nil, err
		}
		rows[w.Name()] = [2]*sim.HierarchyResult{res[0][0].Hier, res[1][0].Hier}
		order = append(order, w.Name())
	}
	return rows, order, nil
}

// sweepTargets are the geometries runSweep evaluates a placement trained
// for the 8K direct-mapped cache on.
var sweepTargets = []cache.Config{
	{Size: 4 * 1024, BlockSize: 32, Assoc: 1},
	{Size: 8 * 1024, BlockSize: 32, Assoc: 1},
	{Size: 16 * 1024, BlockSize: 32, Assoc: 1},
	{Size: 8 * 1024, BlockSize: 32, Assoc: 2},
}

// runSweep reproduces the section 5.2 study: how a placement targeted at
// one cache geometry fares on others, including an associative cache.
// It studies three fixed programs, whatever -workloads selects.
func runSweep(_ []workload.Workload, scale float64) error {
	var ws []workload.Workload
	for _, name := range []string{"espresso", "compress", "m88ksim"} {
		w, err := workload.Get(name)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	rows, err := sweepRows(ws, scale)
	if err != nil {
		return err
	}
	fmt.Println("Section 5.2: placement trained for 8K direct-mapped, evaluated across geometries")
	fmt.Printf("%-10s %-22s %9s %9s %7s\n", "program", "evaluated cache", "natural", "ccdp", "%red")
	for i, w := range ws {
		for j, cc := range sweepTargets {
			nat, ccdp := rows[i][j][0], rows[i][j][1]
			red := 0.0
			if nat.MissRate() > 0 {
				red = 100 * (nat.MissRate() - ccdp.MissRate()) / nat.MissRate()
			}
			fmt.Printf("%-10s %-22s %8.2f%% %8.2f%% %6.1f%%\n",
				w.Name(), cc.String(), nat.MissRate(), ccdp.MissRate(), red)
		}
	}
	return nil
}

// sweepRows evaluates each program's natural and CCDP layouts on every
// sweep target in one pass per program: rows[program][target] holds the
// natural and the CCDP result.
func sweepRows(ws []workload.Workload, scale float64) ([][][2]*sim.EvalResult, error) {
	members := make([]sim.Member, len(sweepTargets))
	for j, cc := range sweepTargets {
		members[j] = sim.Member{Cache: cc}
	}
	rows := make([][][2]*sim.EvalResult, len(ws))
	for i, w := range ws {
		res, err := tablePass(w, scale, sim.DefaultOptions(), members...)
		if err != nil {
			return nil, err
		}
		for j := range sweepTargets {
			rows[i] = append(rows[i], [2]*sim.EvalResult{res[0][j].Eval, res[1][j].Eval})
		}
	}
	return rows, nil
}
