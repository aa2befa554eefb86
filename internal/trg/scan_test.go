package trg

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/rng"
)

// scanStep is one recency-queue scan: chunk a re-touched, with bs the
// distinct chunks referenced since its previous touch.
type scanStep struct {
	a  ChunkKey
	bs []ChunkKey
}

// randomScans draws a seeded scan stream over a nodes×chunks universe.
// Scans are long enough for hot keys to spill their inline neighbor
// arrays, and the universe is small enough that most pairs are scanned
// from both ends (both half-edges a→b and b→a exist before mirroring).
func randomScans(seed uint64, scans, nodes, chunks, maxLen int) []scanStep {
	r := rng.New(seed)
	key := func() ChunkKey { return MakeChunkKey(NodeID(r.Intn(nodes)), r.Intn(chunks)) }
	out := make([]scanStep, scans)
	for i := range out {
		a := key()
		seen := map[ChunkKey]bool{a: true}
		var bs []ChunkKey
		for n := r.Intn(maxLen + 1); len(bs) < n && len(seen) < nodes*chunks; {
			if b := key(); !seen[b] {
				seen[b] = true
				bs = append(bs, b)
			}
		}
		out[i] = scanStep{a, bs}
	}
	return out
}

// newScanGraph returns a graph holding the universe's nodes, so Finalize
// has popularity to compute.
func newScanGraph(nodes int) *Graph {
	g := NewGraph(DefaultChunkSize)
	for i := 0; i < nodes; i++ {
		g.AddNode(Node{Category: object.Global, Name: fmt.Sprintf("n%d", i), Size: 1024})
	}
	return g
}

// pairwise builds the reference graph: one AddWeight(a, b, 1) per scanned
// pair, symmetric at every step.
func pairwise(steps []scanStep, nodes int) *Graph {
	g := newScanGraph(nodes)
	for _, s := range steps {
		for _, b := range s.bs {
			g.AddWeight(s.a, b, 1)
		}
	}
	g.Finalize(0.99)
	return g
}

// scanned builds the same graph through AddScan. shards 0 feeds one graph
// finalized directly; otherwise each scan goes to the shard graph that
// owns its touched chunk, as in the sharded profiler, and the shard
// graphs are mirrored and then merged in shard order.
func scanned(steps []scanStep, nodes, shards int) *Graph {
	if shards == 0 {
		g := newScanGraph(nodes)
		for _, s := range steps {
			g.AddScan(s.a, s.bs)
		}
		g.Finalize(0.99)
		return g
	}
	parts := make([]*Graph, shards)
	for i := range parts {
		parts[i] = NewGraph(DefaultChunkSize)
	}
	for _, s := range steps {
		parts[(int(s.a.Node())+s.a.Chunk())%shards].AddScan(s.a, s.bs)
	}
	g := newScanGraph(nodes)
	for _, p := range parts {
		p.Mirror()
		g.Merge(p)
	}
	g.Finalize(0.99)
	return g
}

// requireSameGraph holds got to everything a consumer of want can read:
// the ForEachEdge sequence, edge count, total weight, the weight of every
// pair in the universe, every chunk's neighbor set, and popularity.
func requireSameGraph(t *testing.T, label string, want, got *Graph, nodes, chunks int) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() || got.TotalWeight() != want.TotalWeight() {
		t.Fatalf("%s: %d edges weight %d, want %d edges weight %d",
			label, got.NumEdges(), got.TotalWeight(), want.NumEdges(), want.TotalWeight())
	}
	var we, ge []string
	want.ForEachEdge(func(a, b ChunkKey, w uint64) { we = append(we, fmt.Sprint(a, b, w)) })
	got.ForEachEdge(func(a, b ChunkKey, w uint64) { ge = append(ge, fmt.Sprint(a, b, w)) })
	if strings.Join(ge, ";") != strings.Join(we, ";") {
		t.Fatalf("%s: ForEachEdge sequences differ (%d vs %d edges)", label, len(ge), len(we))
	}
	var keys []ChunkKey
	for n := 0; n < nodes; n++ {
		for c := 0; c < chunks; c++ {
			keys = append(keys, MakeChunkKey(NodeID(n), c))
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			if gw, ww := got.Weight(a, b), want.Weight(a, b); gw != ww {
				t.Fatalf("%s: Weight(%v, %v) = %d, want %d", label, a, b, gw, ww)
			}
		}
		wn, gn := map[ChunkKey]uint64{}, map[ChunkKey]uint64{}
		want.Neighbors(a, func(b ChunkKey, w uint64) { wn[b] = w })
		got.Neighbors(a, func(b ChunkKey, w uint64) { gn[b] = w })
		if fmt.Sprint(gn) != fmt.Sprint(wn) {
			t.Fatalf("%s: Neighbors(%v) = %v, want %v", label, a, gn, wn)
		}
	}
	for id := 0; id < nodes; id++ {
		g, w := got.Node(NodeID(id)), want.Node(NodeID(id))
		if g.Popularity != w.Popularity || g.Popular != w.Popular {
			t.Fatalf("%s: node %d popularity %d/%v, want %d/%v",
				label, id, g.Popularity, g.Popular, w.Popularity, w.Popular)
		}
	}
}

// TestAddScanMatchesPairwise is the differential test of the half-edge
// build: per-scan AddScan calls, into one graph or split over shard graphs
// that are mirrored and merged, must build exactly the graph that one
// symmetric AddWeight per scanned pair builds.
func TestAddScanMatchesPairwise(t *testing.T) {
	cases := []struct {
		name                         string
		scans, nodes, chunks, maxLen int
	}{
		{"inline-only", 300, 30, 2, 3},
		{"spill-heavy", 2000, 6, 4, 16},
		{"index-growth", 3000, 80, 2, 8},
	}
	for _, tc := range cases {
		for _, seed := range []uint64{1, 2, 3} {
			steps := randomScans(seed, tc.scans, tc.nodes, tc.chunks, tc.maxLen)
			want := pairwise(steps, tc.nodes)
			for _, shards := range []int{0, 2, 4} {
				label := fmt.Sprintf("%s/seed=%d/shards=%d", tc.name, seed, shards)
				got := scanned(steps, tc.nodes, shards)
				requireSameGraph(t, label, want, got, tc.nodes, tc.chunks)
				got.Mirror() // idempotent: a second mirror changes nothing
				requireSameGraph(t, label+"/mirrored-again", want, got, tc.nodes, tc.chunks)
			}
		}
	}
}

// TestHalfEdgeGraphGuards pins the two build modes apart: a graph holding
// unmirrored half-edges rejects symmetric writes and merges, and a graph
// holding symmetric edges rejects further scans.
func TestHalfEdgeGraphGuards(t *testing.T) {
	a, b := MakeChunkKey(1, 0), MakeChunkKey(2, 0)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	half := func() *Graph {
		g := NewGraph(0)
		g.AddScan(a, []ChunkKey{b})
		return g
	}
	mustPanic("AddWeight on unmirrored graph", func() { half().AddWeight(a, b, 1) })
	mustPanic("Merge of unmirrored source", func() { NewGraph(0).Merge(half()) })
	mustPanic("Merge into unmirrored graph", func() { half().Merge(NewGraph(0)) })
	sym := NewGraph(0)
	sym.AddWeight(a, b, 1)
	mustPanic("AddScan on symmetric graph", func() { sym.AddScan(b, []ChunkKey{a}) })

	g := half()
	g.Mirror()
	g.AddWeight(a, b, 2) // mirrored: symmetric writes are fine again
	if g.Weight(a, b) != 3 || g.Weight(b, a) != 3 || g.TotalWeight() != 3 {
		t.Fatalf("weights %d/%d total %d, want 3/3/3", g.Weight(a, b), g.Weight(b, a), g.TotalWeight())
	}
	empty := NewGraph(0)
	empty.AddScan(a, nil) // an empty scan records nothing
	empty.AddWeight(a, b, 1)
}

// BenchmarkAddScan is AddScan's counterpart of BenchmarkAddWeightFlat:
// it reports the time per scanned pair beside the time per scan. The scans
// cover a hot core of 256 keys, so most half-edges already exist, as in
// the recency-queue scan.
func BenchmarkAddScan(b *testing.B) {
	steps := randomScans(42, 1<<12, 64, 4, 32)
	g := NewGraph(DefaultChunkSize)
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := steps[i&(1<<12-1)]
		g.AddScan(s.a, s.bs)
		pairs += len(s.bs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(pairs, 1)), "ns/pair")
}
