package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/persist"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallRequest builds a sweep request over a reduced-scale workload with
// in-memory traces (no store directory), the shape every test here uses.
func smallRequest(t testing.TB, name string, frac float64, g Grid) Request {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	train, test := w.Train(), w.Test()
	train.Bursts = int(float64(train.Bursts) * frac)
	test.Bursts = int(float64(test.Bursts) * frac)
	opts := sim.DefaultOptions()
	opts.Parallelism = 2
	return Request{Workload: w, Train: train, Test: test, Grid: g, Options: opts}
}

func mustPrep(t testing.TB, req Request) *Prep {
	t.Helper()
	p, err := NewPrep(req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSharedMatchesIndependent is the engine's differential gate: every
// grid cell of a shared-decode run must be byte-identical (through the
// persisted result encoding) to an independent per-cell replay, at
// parallelism 1, 2, 3, 4 and one more than the group count (uneven
// worker loads, then idle workers clamped away), across geometry,
// profiling, layout, and hierarchy axes.
func TestSharedMatchesIndependent(t *testing.T) {
	g := Grid{
		Sizes:   []int64{4096, 8192},
		Assocs:  []int{1},
		Chunks:  []int64{0, 512},
		Cutoffs: []float64{0, 0.001},
		Layouts: []string{"natural", "ccdp", "random"},
		Heaps:   []string{"first", "temporal"},
		L2:      []L2Point{{Size: 96 * 1024, Block: 32, Assoc: 3, TLB: 32}},
	}
	p := mustPrep(t, smallRequest(t, "compress", 0.05, g))
	if n := len(p.Cells()); n != 2*1*2*2*3*2*2 {
		t.Fatalf("expected 96 cells, got %d", n)
	}

	ind, err := p.RunIndependent(4)
	if err != nil {
		t.Fatal(err)
	}
	// 19 group keys: natural and random per heap fit (3 groups), and 16
	// CCDP keys (2 sizes x 2 chunks x 2 cutoffs x 2 heap fits). At 4K
	// under cutoff 0.001 the chunk 256 and 512 placements coincide, for
	// each heap fit, so those two pairs merge: 17 groups are replayed.
	if keys := len(cellGroupWeights(p)); keys != 19 {
		t.Fatalf("%d group keys, want 19", keys)
	}
	const groups = 17
	for _, par := range []int{1, 2, 3, 4, groups + 1} {
		shared, err := p.RunShared(par)
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		if shared.Groups != groups {
			t.Fatalf("parallel %d: %d groups, want %d", par, shared.Groups, groups)
		}
		if err := DiffResults(shared, ind); err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
	}
}

// TestSharedMatchesIndependentSkewedGroups runs the differential gate on
// the benchmark's shape of grid: every natural cell in one many-member
// layout group beside single-member CCDP groups, so the worker loads
// assignGroups balances are far from equal.
func TestSharedMatchesIndependentSkewedGroups(t *testing.T) {
	g := Grid{
		Sizes:   []int64{4096, 8192},
		Assocs:  []int{1, 2},
		Blocks:  []int64{32, 64},
		Layouts: []string{"natural", "ccdp"},
	}
	p := mustPrep(t, smallRequest(t, "compress", 0.05, g))
	want := []int{9, 2, 2, 2, 2, 2, 2, 2, 2} // natural group first: layouts vary fastest
	if weights := cellGroupWeights(p); !reflect.DeepEqual(weights, want) {
		t.Fatalf("group weights %v, want %v", weights, want)
	}

	ind, err := p.RunIndependent(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3} {
		shared, err := p.RunShared(par)
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		if err := DiffResults(shared, ind); err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
	}
}

// TestSharedMatchesEvalFromTrace holds the engine to the satellite's
// letter: each single-level cell must byte-match a from-scratch
// sim.EvalFromTrace over the raw trace bytes, and each hierarchy cell a
// from-scratch sim.EvalHierarchyFrom, using the same prep products.
func TestSharedMatchesEvalFromTrace(t *testing.T) {
	g := Grid{
		Sizes:   []int64{8192},
		Layouts: []string{"natural", "ccdp"},
		L2:      []L2Point{{Size: 96 * 1024, Block: 32, Assoc: 3, TLB: 32}},
	}
	p := mustPrep(t, smallRequest(t, "espresso", 0.05, g))
	if err := p.materialize(); err != nil {
		t.Fatal(err)
	}
	shared, err := p.RunShared(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range p.Cells() {
		opts := p.cellOpts[i]
		if cell.L2 == nil {
			oracle, err := sim.EvalFromTrace(bytes.NewReader(p.testTrace), cell.Layout, p.prs[i], p.pms[i], p.heapPlace, opts)
			if err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
			got := sim.EncodeEvalResult(shared.Cells[i].Eval)
			want := sim.EncodeEvalResult(oracle)
			if !bytes.Equal(got, want) {
				t.Fatalf("cell %d (%s) diverged from EvalFromTrace:\n--- sweep ---\n%s--- oracle ---\n%s",
					i, cell.Label(), got, want)
			}
			continue
		}
		src, err := sim.OpenReplay(bytes.NewReader(p.testTrace), opts)
		if err != nil {
			t.Fatal(err)
		}
		hcfg := hierarchy.Config{L1: cell.Cache, L2: *cell.L2, TLBEntries: cell.TLB}
		oracle, err := sim.EvalHierarchyFrom(src, "", p.heapPlace, workload.Input{}, cell.Layout, p.prs[i], p.pms[i], hcfg, opts)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		got := sim.EncodeHierarchyResult(shared.Cells[i].Hier)
		want := sim.EncodeHierarchyResult(oracle)
		if !bytes.Equal(got, want) {
			t.Fatalf("hierarchy cell %d (%s) diverged:\n--- sweep ---\n%s--- oracle ---\n%s",
				i, cell.Label(), got, want)
		}
	}
}

// TestBroadcastMatchesProfileFrom is the multi-profile differential
// gate: the decode-once broadcast pass must produce, for every demanded
// (chunk, queue) shape, a profile whose persisted bytes are identical to
// a sequential ProfileFrom replay of the same train trace — at stream
// parallelism 1 and 4.
func TestBroadcastMatchesProfileFrom(t *testing.T) {
	g := Grid{
		Chunks:  []int64{128, 256, 512},
		Queues:  []int64{8192},
		Layouts: []string{"ccdp"},
	}
	req := smallRequest(t, "compress", 0.05, g)
	p := mustPrep(t, req)

	// Collect the demanded profile configs exactly as buildGroups does.
	var keys []string
	optsFor := map[string]sim.Options{}
	for i, c := range p.cells {
		k := c.profileKey(req.Options)
		if _, ok := optsFor[k]; !ok {
			keys = append(keys, k)
			optsFor[k] = p.cellOpts[i]
		}
	}
	if len(keys) != 3 {
		t.Fatalf("expected 3 profile configs, got %d (%v)", len(keys), keys)
	}

	// Sequential oracle: one private ProfileFrom pass per config.
	want := map[string][]byte{}
	for _, k := range keys {
		opts := optsFor[k]
		opts.Parallelism = 1
		src, err := p.open(req.Train, opts)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := sim.ProfileFrom(src, opts)
		if err != nil {
			t.Fatalf("oracle %s: %v", k, err)
		}
		var buf bytes.Buffer
		if err := persist.WriteProfile(&buf, pr.Profile); err != nil {
			t.Fatal(err)
		}
		want[k] = buf.Bytes()
	}

	for _, par := range []int{1, 4} {
		got, err := p.broadcastProfiles(keys, optsFor, par)
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		for _, k := range keys {
			var buf bytes.Buffer
			if err := persist.WriteProfile(&buf, got[k].Profile); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want[k]) {
				t.Fatalf("parallel %d: profile %s diverged from sequential ProfileFrom (%d vs %d bytes)",
					par, k, buf.Len(), len(want[k]))
			}
		}
	}
}

// TestPrepStreamingAccounting pins the streamed-prep guarantees: with
// several profile configs and layouts in play, the broadcast dedupes
// repeated passes and the release discipline keeps the resident peak
// strictly below materialize-everything.
func TestPrepStreamingAccounting(t *testing.T) {
	g := Grid{
		Sizes:   []int64{4096, 8192},
		Chunks:  []int64{128, 512},
		Queues:  []int64{8192, 16384},
		Layouts: []string{"natural", "ccdp"},
		Heaps:   []string{"first", "temporal"},
	}
	req := smallRequest(t, "compress", 0.05, g)
	mc := metrics.New()
	req.Options.Metrics = mc
	p := mustPrep(t, req)
	res, err := p.RunShared(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfilesBroadcast != 4 {
		t.Fatalf("ProfilesBroadcast = %d, want 4 (2 chunks x 2 queues)", res.ProfilesBroadcast)
	}
	if res.ProfilesDeduped <= 0 {
		t.Fatalf("ProfilesDeduped = %d, want > 0", res.ProfilesDeduped)
	}
	if res.Groups <= 0 || res.Groups >= len(res.Cells) {
		t.Fatalf("Groups = %d, want in (0, %d): grouping must merge some cells", res.Groups, len(res.Cells))
	}
	if res.PeakPrepBytes <= 0 || res.PrepBytesTotal <= 0 {
		t.Fatalf("prep bytes not accounted: peak=%d total=%d", res.PeakPrepBytes, res.PrepBytesTotal)
	}
	if res.PeakPrepBytes >= res.PrepBytesTotal {
		t.Fatalf("peak prep bytes %d not below materialize-everything %d", res.PeakPrepBytes, res.PrepBytesTotal)
	}
	if res.PrepNanos <= 0 || res.PrepNanos > res.WallNanos {
		t.Fatalf("PrepNanos = %d out of range (wall %d)", res.PrepNanos, res.WallNanos)
	}
	if s := res.PrepSharePct(); s <= 0 || s > 100 {
		t.Fatalf("prep share %.1f%% out of range", s)
	}
	if got := mc.Get(metrics.SweepLayoutGroups); got != uint64(res.Groups) {
		t.Fatalf("SweepLayoutGroups = %d, result says %d", got, res.Groups)
	}
	if got := mc.Get(metrics.SweepProfilesBroadcast); got != uint64(res.ProfilesBroadcast) {
		t.Fatalf("SweepProfilesBroadcast = %d, result says %d", got, res.ProfilesBroadcast)
	}
	if got := mc.Get(metrics.SweepProfilesDeduped); got != uint64(res.ProfilesDeduped) {
		t.Fatalf("SweepProfilesDeduped = %d, result says %d", got, res.ProfilesDeduped)
	}
	if got := mc.Get(metrics.SweepPeakPrepBytes); got != uint64(res.PeakPrepBytes) {
		t.Fatalf("SweepPeakPrepBytes = %d, result says %d", got, res.PeakPrepBytes)
	}
}

// TestAttributionIsolation is the regression test for the shared-decode
// attribution fix: switching attribution on for one cell must populate
// that cell's attribution — identically to an attributed independent
// replay — without perturbing any neighbor sharing the decode.
func TestAttributionIsolation(t *testing.T) {
	g := Grid{Sizes: []int64{4096, 8192}, Layouts: []string{"natural", "ccdp"}}
	req := smallRequest(t, "compress", 0.05, g)

	baseline := mustPrep(t, req)
	plain, err := baseline.RunShared(2)
	if err != nil {
		t.Fatal(err)
	}

	p := mustPrep(t, req)
	const attributed = 1
	p.cells[attributed].Attribution = true
	p.cellOpts[attributed] = p.cells[attributed].Options(req.Options)
	mixed, err := p.RunShared(2)
	if err != nil {
		t.Fatal(err)
	}

	for i := range mixed.Cells {
		if i == attributed {
			if mixed.Cells[i].Eval.Attribution == nil {
				t.Fatalf("cell %d: attribution requested but nil", i)
			}
			continue
		}
		if mixed.Cells[i].Eval.Attribution != nil {
			t.Fatalf("cell %d: attribution leaked to a neighbor", i)
		}
		got := sim.EncodeEvalResult(mixed.Cells[i].Eval)
		want := sim.EncodeEvalResult(plain.Cells[i].Eval)
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d perturbed by neighbor's attribution:\n--- with ---\n%s--- without ---\n%s", i, got, want)
		}
	}

	// The attributed cell must equal an attributed oracle replay.
	if err := p.materialize(); err != nil {
		t.Fatal(err)
	}
	opts := p.cellOpts[attributed]
	cell := p.cells[attributed]
	oracle, err := sim.EvalFromTrace(bytes.NewReader(p.testTrace), cell.Layout, p.prs[attributed], p.pms[attributed], p.heapPlace, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.EncodeEvalResult(mixed.Cells[attributed].Eval)
	want := sim.EncodeEvalResult(oracle)
	if !bytes.Equal(got, want) {
		t.Fatalf("attributed cell diverged from attributed oracle:\n--- sweep ---\n%s--- oracle ---\n%s", got, want)
	}
}

// TestHierarchyAttributionConsistency covers the other half of the fix:
// the hierarchy path honors Options.Attribution (on the L1) the same
// way the single-level path does.
func TestHierarchyAttributionConsistency(t *testing.T) {
	g := Grid{Layouts: []string{"natural"}, L2: []L2Point{{Size: 96 * 1024, Block: 32, Assoc: 3, TLB: 32}}}
	req := smallRequest(t, "espresso", 0.05, g)
	p := mustPrep(t, req)
	hierIdx := -1
	for i, c := range p.cells {
		if c.L2 != nil {
			hierIdx = i
		}
	}
	if hierIdx < 0 {
		t.Fatal("no hierarchy cell in grid")
	}
	p.cells[hierIdx].Attribution = true
	p.cellOpts[hierIdx] = p.cells[hierIdx].Options(req.Options)

	shared, err := p.RunShared(2)
	if err != nil {
		t.Fatal(err)
	}
	hr := shared.Cells[hierIdx].Hier
	if hr.Attribution == nil {
		t.Fatal("hierarchy cell: attribution requested but nil")
	}
	if len(hr.Attribution.Sets) != p.cells[hierIdx].Cache.Sets() {
		t.Fatalf("attribution covers %d sets, L1 has %d",
			len(hr.Attribution.Sets), p.cells[hierIdx].Cache.Sets())
	}
	// L1 stats of the hierarchy cell must match the single-level cell of
	// the same geometry (attribution never feeds back).
	for i, c := range p.cells {
		if c.L2 == nil && c.Cache == p.cells[hierIdx].Cache && c.Layout == p.cells[hierIdx].Layout {
			if shared.Cells[i].Eval.Stats.Misses != hr.Stats.L1.Misses {
				t.Fatalf("L1 misses diverge: single-level %d, hierarchy %d",
					shared.Cells[i].Eval.Stats.Misses, hr.Stats.L1.Misses)
			}
		}
	}
}

// TestSweepMetricsAndRows sanity-checks the engine's observability
// surface: cell/batch counters, decode-share bounds, and report rows.
func TestSweepMetricsAndRows(t *testing.T) {
	g := Grid{Sizes: []int64{4096, 8192, 16384}, Layouts: []string{"natural", "ccdp"}}
	req := smallRequest(t, "compress", 0.05, g)
	mc := metrics.New()
	req.Options.Metrics = mc
	p := mustPrep(t, req)
	res, err := p.RunShared(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.Get(metrics.SweepCells); got != uint64(len(p.Cells())) {
		t.Fatalf("SweepCells = %d, want %d", got, len(p.Cells()))
	}
	if res.Batches == 0 || mc.Get(metrics.SweepBatches) != res.Batches {
		t.Fatalf("SweepBatches = %d, result says %d", mc.Get(metrics.SweepBatches), res.Batches)
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
	if s := res.DecodeSharePct(); s < 0 || s > 100 {
		t.Fatalf("decode share %.1f%% out of range", s)
	}
	if res.ConfigsPerSec() <= 0 {
		t.Fatal("non-positive throughput")
	}

	rows := res.Rows()
	if len(rows) != len(p.Cells()) {
		t.Fatalf("%d rows for %d cells", len(rows), len(p.Cells()))
	}
	pareto := 0
	for _, r := range rows {
		if r.Pareto {
			pareto++
		}
		if r.Accesses == 0 {
			t.Fatalf("row %+v has zero accesses", r)
		}
	}
	if pareto == 0 {
		t.Fatal("no Pareto-optimal rows marked")
	}
	// The smallest cache's best layout must be on the frontier (nothing
	// can dominate the minimum-bytes point).
	minBytes := rows[0].Bytes
	for _, r := range rows {
		if r.Bytes < minBytes {
			minBytes = r.Bytes
		}
	}
	found := false
	for _, r := range rows {
		if r.Bytes == minBytes && r.Pareto {
			found = true
		}
	}
	if !found {
		t.Fatal("minimum-capacity point missing from the frontier")
	}
}

// TestTraceStoreBackedSweep runs the engine against an on-disk trace
// store twice: the second prep must replay without recording anything.
func TestTraceStoreBackedSweep(t *testing.T) {
	g := Grid{Layouts: []string{"natural", "ccdp"}}
	req := smallRequest(t, "compress", 0.05, g)
	req.Trace = sim.TraceConfig{Dir: t.TempDir()}
	mc := metrics.New()
	req.Options.Metrics = mc

	p := mustPrep(t, req)
	first, err := p.RunShared(2)
	if err != nil {
		t.Fatal(err)
	}

	req2 := req
	req2.Trace.RequireRecorded = true // must hit the store, never record
	p2 := mustPrep(t, req2)
	second, err := p2.RunShared(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffResults(first, second); err != nil {
		t.Fatal(err)
	}
}

func TestGridValidation(t *testing.T) {
	cases := []struct {
		name string
		g    Grid
		want string
	}{
		{"bad block", Grid{Blocks: []int64{33}}, "power of two"},
		{"bad layout", Grid{Layouts: []string{"zigzag"}}, "unknown layout"},
		{"l2 smaller than l1", Grid{Sizes: []int64{16384}, L2: []L2Point{{Size: 8192, Block: 32, Assoc: 1}}}, "smaller than L1"},
		{"queue below chunk", Grid{Chunks: []int64{4096}, Queues: []int64{64}}, "profile"},
	}
	for _, tc := range cases {
		if _, err := tc.g.Cells(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestParseAxes(t *testing.T) {
	g, err := ParseAxes("4096,8192", "32", "1,2", "0,512", "", "", "natural,ccdp", "", "98304/32/3/32")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*1*2*2*1*2*2 {
		t.Fatalf("got %d cells", len(cells))
	}
	g, err = ParseAxes("8192", "", "", "", "", "0,0.001", "ccdp", "first,temporal", "")
	if err != nil {
		t.Fatal(err)
	}
	if cells, err = g.Cells(); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2 {
		t.Fatalf("cutoff x heap grid: got %d cells, want 4", len(cells))
	}
	if _, err := ParseAxes("", "", "", "", "", "", "", "", "98304/32"); err == nil {
		t.Fatal("malformed l2 point accepted")
	}
	if _, err := ParseAxes("banana", "", "", "", "", "", "", "", ""); err == nil {
		t.Fatal("malformed size accepted")
	}
	if _, err := ParseAxes("", "", "", "", "", "banana", "", "", ""); err == nil {
		t.Fatal("malformed cutoff accepted")
	}
	bad := Grid{Heaps: []string{"zigzag"}}
	if _, err := bad.Cells(); err == nil {
		t.Fatal("unknown heap fit accepted")
	}
}

func cacheCfg(size, block int64, assoc int) cache.Config {
	return cache.Config{Size: size, BlockSize: block, Assoc: assoc}
}

func TestCellLabels(t *testing.T) {
	l2 := L2Point{Size: 96 * 1024, Block: 32, Assoc: 3, TLB: 32}.Config()
	c := Cell{Cache: cacheCfg(8192, 32, 1), L2: &l2, Chunk: 512, Queue: 16384, Layout: sim.LayoutCCDP}
	if got, want := c.Label(), "8K/32/dm+L2:96K/32/3w c512 q16384 ccdp"; got != want {
		t.Fatalf("label %q, want %q", got, want)
	}
	if c.Bytes() != 8192+96*1024 {
		t.Fatalf("bytes %d", c.Bytes())
	}
	c.Cutoff = 0.001
	c.Heap = "temporal"
	if got, want := c.Label(), "8K/32/dm+L2:96K/32/3w c512 q16384 p0.001 ccdp temporal"; got != want {
		t.Fatalf("label %q, want %q", got, want)
	}
	c.Heap = "first" // the default fit stays out of the label
	if got := c.Label(); strings.Contains(got, "first") {
		t.Fatalf("label %q mentions the default heap fit", got)
	}
}

// TestRunSharedCancelled verifies the request context gates the shared
// engine: a cancelled context fails the run before any simulation work,
// with the cancellation visible through errors.Is (what ccdpd's job
// manager classifies cancelled jobs by).
func TestRunSharedCancelled(t *testing.T) {
	g := Grid{Sizes: []int64{4096, 8192}, Layouts: []string{"natural", "ccdp"}}
	req := smallRequest(t, "espresso", 0.05, g)
	ctx, cancel := context.WithCancel(context.Background())
	req.Context = ctx
	p := mustPrep(t, req)

	cancel()
	if _, err := p.RunShared(2); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunShared with cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := p.RunIndependent(2); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunIndependent with cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestCollectorAbortsMidReplay drives the shared-replay broadcast
// directly: once its context is cancelled, already-buffered and
// subsequent events must be dropped instead of broadcast (Drive has no
// abort seam, so this is how a running sweep stops within one batch).
func TestCollectorAbortsMidReplay(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	table := object.NewTable(4096)
	var delivered atomic.Int32
	bc := newBroadcast(ctx, table, 1, func(int, []trace.Rec) { delivered.Add(1) })
	ev := trace.Event{Kind: trace.Load, Obj: 0, Size: 4}
	for i := 0; i < batchSize; i++ {
		bc.HandleEvent(ev) // exactly one full batch: broadcast
	}
	cancel()
	for i := 0; i < 2*batchSize; i++ {
		bc.HandleEvent(ev) // post-cancel events: dropped
	}
	bc.flush()
	bc.st.Close()
	if !bc.aborted {
		t.Fatal("broadcast did not abort after cancellation")
	}
	if got := delivered.Load(); got != 1 {
		t.Fatalf("delivered %d batches, want only the pre-cancel one", got)
	}
}

// TestProfileBroadcastHonoursCancel holds the train-side broadcast to the
// same cancellation contract as the test replay: a cancelled request
// fails the profiling pass with the context error instead of decoding the
// whole train trace into the builders.
func TestProfileBroadcastHonoursCancel(t *testing.T) {
	g := Grid{Sizes: []int64{4096, 8192}, Layouts: []string{"ccdp"}}
	req := smallRequest(t, "espresso", 0.05, g)
	ctx, cancel := context.WithCancel(context.Background())
	req.Context = ctx
	p := mustPrep(t, req)
	keys := []string{p.cells[0].profileKey(req.Options)}
	optsFor := map[string]sim.Options{keys[0]: p.cellOpts[0]}

	if _, err := p.broadcastProfiles(keys, optsFor, 2); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	out, err := p.broadcastProfiles(keys, optsFor, 2)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("cancelled broadcast returned %d profiles", len(out))
	}
}

// TestProgressMonotonicAndInert exercises the OnProgress seam: snapshots
// must arrive with non-decreasing counters through both engines, end with
// every cell and group accounted for, and — the zero-perturbation
// contract — leave results byte-identical to a run without the callback.
func TestProgressMonotonicAndInert(t *testing.T) {
	g := Grid{
		Sizes:   []int64{4096, 8192},
		Chunks:  []int64{0, 512},
		Layouts: []string{"natural", "ccdp"},
		Heaps:   []string{"first", "temporal"},
	}
	base := smallRequest(t, "espresso", 0.05, g)

	silent, err := mustPrep(t, base).RunShared(2)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, snaps []Progress, res *Result) {
		t.Helper()
		if len(snaps) == 0 {
			t.Fatal("no progress snapshots")
		}
		var prev Progress
		for i, s := range snaps {
			if s.GroupsDone < prev.GroupsDone || s.CellsDone < prev.CellsDone ||
				s.Batches < prev.Batches || s.Events < prev.Events {
				t.Fatalf("snapshot %d regressed: %+v after %+v", i, s, prev)
			}
			if s.CellsTotal != len(res.Cells) {
				t.Fatalf("snapshot %d CellsTotal = %d, want %d", i, s.CellsTotal, len(res.Cells))
			}
			prev = s
		}
		last := snaps[len(snaps)-1]
		if last.CellsDone != len(res.Cells) {
			t.Fatalf("final CellsDone = %d, want %d", last.CellsDone, len(res.Cells))
		}
		if err := DiffResults(res, silent); err != nil {
			t.Fatalf("progress callback perturbed results: %v", err)
		}
	}

	for _, par := range []int{1, 4} {
		var snaps []Progress
		req := base
		req.OnProgress = func(p Progress) { snaps = append(snaps, p) }
		res, err := mustPrep(t, req).RunShared(par)
		if err != nil {
			t.Fatalf("shared parallel %d: %v", par, err)
		}
		check(t, snaps, res)
		last := snaps[len(snaps)-1]
		if last.Groups == 0 || last.GroupsDone != last.Groups {
			t.Fatalf("parallel %d: groups %d/%d not all carved", par, last.GroupsDone, last.Groups)
		}
		if last.Batches == 0 || last.Events == 0 {
			t.Fatalf("parallel %d: no replay batches observed: %+v", par, last)
		}
	}

	var mu sync.Mutex
	var snaps []Progress
	req := base
	req.OnProgress = func(p Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	}
	res, err := mustPrep(t, req).RunIndependent(4)
	if err != nil {
		t.Fatal(err)
	}
	check(t, snaps, res)
}
