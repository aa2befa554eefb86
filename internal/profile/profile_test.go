package profile

import (
	"testing"

	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/trg"
)

// testRig wires an emitter to a profiler over a fresh table.
type testRig struct {
	tbl  *object.Table
	prof *Profiler
	em   *trace.Emitter
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	tbl := object.NewTable(1024)
	p, err := New(cfg, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{tbl: tbl, prof: p, em: trace.NewEmitter(tbl, trace.NewEnricher(tbl, p))}
}

// finish flushes any batched events still in the emitter's ring and
// finalises the profile; tests must read profiler state through it.
func (r *testRig) finish() *Profile {
	r.em.Flush()
	return r.prof.Finish()
}

func smallConfig() Config {
	return Config{ChunkSize: 256, QueueThreshold: 16 * 1024, PopularityCutoff: 0.99}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(8192).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{ChunkSize: 0, QueueThreshold: 1024, PopularityCutoff: 0.9},
		{ChunkSize: 256, QueueThreshold: 128, PopularityCutoff: 0.9},
		{ChunkSize: 256, QueueThreshold: 1024, PopularityCutoff: 0},
		{ChunkSize: 256, QueueThreshold: 1024, PopularityCutoff: 1.5},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %+v unexpectedly valid", c)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig(8192)
	if c.ChunkSize != 256 {
		t.Errorf("chunk size %d, want the paper's 256", c.ChunkSize)
	}
	if c.QueueThreshold != 16384 {
		t.Errorf("queue threshold %d, want 2x cache = 16384", c.QueueThreshold)
	}
	if c.PopularityCutoff != 0.99 {
		t.Errorf("popularity cutoff %g, want 0.99", c.PopularityCutoff)
	}
}

func TestAlternationCreatesEdge(t *testing.T) {
	r := newRig(t, smallConfig())
	a := r.tbl.AddGlobal("a", 64)
	b := r.tbl.AddGlobal("b", 64)

	// a, b, a: the second touch of a finds b ahead of it -> edge (a,b)+1.
	r.em.Load(a, 0, 8)
	r.em.Load(b, 0, 8)
	r.em.Load(a, 8, 8)

	prof := r.finish()
	ka := trg.MakeChunkKey(prof.Node(a), 0)
	kb := trg.MakeChunkKey(prof.Node(b), 0)
	if got := prof.Graph.Weight(ka, kb); got != 1 {
		t.Fatalf("edge weight %d, want 1", got)
	}
}

func TestRepeatedAccessNoEdge(t *testing.T) {
	r := newRig(t, smallConfig())
	a := r.tbl.AddGlobal("a", 64)
	for i := 0; i < 10; i++ {
		r.em.Load(a, 0, 8)
	}
	prof := r.finish()
	if prof.Graph.TotalWeight() != 0 {
		t.Fatal("same-chunk loop should create no edges")
	}
}

func TestEdgeWeightCountsIntervening(t *testing.T) {
	r := newRig(t, smallConfig())
	a := r.tbl.AddGlobal("a", 64)
	b := r.tbl.AddGlobal("b", 64)
	c := r.tbl.AddGlobal("c", 64)

	// a, b, c, a: the return to a sees c and b ahead -> edges (a,c) and (a,b).
	r.em.Load(a, 0, 8)
	r.em.Load(b, 0, 8)
	r.em.Load(c, 0, 8)
	r.em.Load(a, 0, 8)

	prof := r.finish()
	na, nb, nc := prof.Node(a), prof.Node(b), prof.Node(c)
	ka, kb, kc := trg.MakeChunkKey(na, 0), trg.MakeChunkKey(nb, 0), trg.MakeChunkKey(nc, 0)
	if prof.Graph.Weight(ka, kb) != 1 || prof.Graph.Weight(ka, kc) != 1 {
		t.Fatalf("weights ab=%d ac=%d, want 1/1",
			prof.Graph.Weight(ka, kb), prof.Graph.Weight(ka, kc))
	}
	if prof.Graph.Weight(kb, kc) != 0 {
		t.Fatalf("bc edge %d, want 0 (b never re-referenced)", prof.Graph.Weight(kb, kc))
	}
}

func TestQueueThresholdEvicts(t *testing.T) {
	cfg := smallConfig()
	cfg.QueueThreshold = 512 // room for two 256-byte chunks
	r := newRig(t, cfg)
	a := r.tbl.AddGlobal("a", 256)
	b := r.tbl.AddGlobal("b", 256)
	c := r.tbl.AddGlobal("c", 256)

	// a, b, c pushes a off the queue; the later touch of a is treated as
	// fresh, so no (a,b) or (a,c) edge is recorded for it.
	r.em.Load(a, 0, 8)
	r.em.Load(b, 0, 8)
	r.em.Load(c, 0, 8)
	r.em.Load(a, 0, 8)

	prof := r.finish()
	ka := trg.MakeChunkKey(prof.Node(a), 0)
	kb := trg.MakeChunkKey(prof.Node(b), 0)
	kc := trg.MakeChunkKey(prof.Node(c), 0)
	if w := prof.Graph.Weight(ka, kb) + prof.Graph.Weight(ka, kc); w != 0 {
		t.Fatalf("evicted object still gained %d edge weight", w)
	}
}

func TestChunkGranularity(t *testing.T) {
	r := newRig(t, smallConfig())
	big := r.tbl.AddGlobal("big", 1024) // 4 chunks
	b := r.tbl.AddGlobal("b", 64)

	// Touch chunk 2 of big, then b, then chunk 2 again: edge must be
	// between (big,2) and (b,0), not chunk 0.
	r.em.Load(big, 600, 8)
	r.em.Load(b, 0, 8)
	r.em.Load(big, 610, 8)

	prof := r.finish()
	nb := prof.Node(b)
	nbig := prof.Node(big)
	if w := prof.Graph.Weight(trg.MakeChunkKey(nbig, 2), trg.MakeChunkKey(nb, 0)); w != 1 {
		t.Fatalf("chunk-2 edge weight %d, want 1", w)
	}
	if w := prof.Graph.Weight(trg.MakeChunkKey(nbig, 0), trg.MakeChunkKey(nb, 0)); w != 0 {
		t.Fatalf("chunk-0 edge weight %d, want 0", w)
	}
}

func TestSpanningAccessTouchesBothChunks(t *testing.T) {
	r := newRig(t, smallConfig())
	big := r.tbl.AddGlobal("big", 512)
	b := r.tbl.AddGlobal("b", 64)
	r.em.Load(b, 0, 8)
	r.em.Load(big, 252, 8) // spans chunks 0 and 1
	r.em.Load(b, 0, 8)
	prof := r.finish()
	nbig, nb := prof.Node(big), prof.Node(b)
	w0 := prof.Graph.Weight(trg.MakeChunkKey(nb, 0), trg.MakeChunkKey(nbig, 0))
	w1 := prof.Graph.Weight(trg.MakeChunkKey(nb, 0), trg.MakeChunkKey(nbig, 1))
	if w0 != 1 || w1 != 1 {
		t.Fatalf("spanning access edges %d/%d, want 1/1", w0, w1)
	}
}

func TestHeapNodesKeyedByXORName(t *testing.T) {
	r := newRig(t, smallConfig())
	h1 := r.em.Malloc("n", 64, 0xCAFE)
	r.em.Load(h1, 0, 8)
	r.em.Free(h1)
	h2 := r.em.Malloc("n", 96, 0xCAFE)
	r.em.Load(h2, 0, 8)

	prof := r.finish()
	if prof.Node(h1) != prof.Node(h2) {
		t.Fatal("same XOR name should map to one placement node")
	}
	n := prof.Graph.Node(prof.Node(h1))
	if n.Size != 96 {
		t.Fatalf("node size %d, want max(64,96)", n.Size)
	}
	if n.AllocCount != 2 {
		t.Fatalf("alloc count %d, want 2", n.AllocCount)
	}
	if n.NonUniqueXOR {
		t.Fatal("sequential same-name allocations are not concurrent")
	}
}

func TestNonUniqueXORDetected(t *testing.T) {
	r := newRig(t, smallConfig())
	h1 := r.em.Malloc("n", 64, 0xCAFE)
	h2 := r.em.Malloc("n", 64, 0xCAFE) // concurrent with h1
	r.em.Load(h1, 0, 8)
	r.em.Load(h2, 0, 8)

	prof := r.finish()
	if !prof.Graph.Node(prof.Node(h1)).NonUniqueXOR {
		t.Fatal("concurrently live same-name allocations must be flagged")
	}
}

func TestFinishAddsUnreferencedStatics(t *testing.T) {
	r := newRig(t, smallConfig())
	g := r.tbl.AddGlobal("never_touched", 128)
	prof := r.finish()
	if prof.Node(g) == trg.NoNode {
		t.Fatal("unreferenced global missing from profile (it still needs a placement slot)")
	}
}

func TestStackIsOneNode(t *testing.T) {
	r := newRig(t, smallConfig())
	r.em.Load(object.StackID, 0, 8)
	r.em.Load(object.StackID, 512, 8)
	prof := r.finish()
	n := prof.Graph.Node(prof.Node(object.StackID))
	if n.Category != object.Stack {
		t.Fatal("stack node category wrong")
	}
	if n.Refs != 2 {
		t.Fatalf("stack refs %d, want 2", n.Refs)
	}
}

func TestTotalRefsCounted(t *testing.T) {
	r := newRig(t, smallConfig())
	g := r.tbl.AddGlobal("g", 64)
	r.em.Load(g, 0, 8)
	r.em.Store(g, 0, 8)
	prof := r.finish()
	if prof.TotalRefs != 2 {
		t.Fatalf("total refs %d, want 2", prof.TotalRefs)
	}
}

func TestSamplingConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.SampleWindow = 100
	if cfg.Validate() == nil {
		t.Fatal("window without period accepted")
	}
	cfg.SamplePeriod = 50
	if cfg.Validate() == nil {
		t.Fatal("window > period accepted")
	}
	cfg.SamplePeriod = 1000
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid sampling config rejected: %v", err)
	}
}

func TestSamplingReducesTRGCost(t *testing.T) {
	full := smallConfig()
	sampled := smallConfig()
	sampled.SampleWindow = 100
	sampled.SamplePeriod = 1000 // profile 10% of references

	build := func(cfg Config) *Profile {
		tbl := object.NewTable(1024)
		p, err := New(cfg, tbl)
		if err != nil {
			t.Fatal(err)
		}
		em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, p))
		a := tbl.AddGlobal("a", 64)
		b := tbl.AddGlobal("b", 64)
		for i := 0; i < 5000; i++ {
			em.Load(a, 0, 8)
			em.Load(b, 0, 8)
		}
		em.Flush()
		return p.Finish()
	}
	fp, sp := build(full), build(sampled)
	if sp.Graph.TotalWeight() >= fp.Graph.TotalWeight() {
		t.Fatalf("sampling did not reduce TRG weight: %d vs %d",
			sp.Graph.TotalWeight(), fp.Graph.TotalWeight())
	}
	if sp.Graph.TotalWeight() == 0 {
		t.Fatal("sampling recorded nothing at 10%")
	}
	// Reference counts stay complete regardless of sampling.
	if sp.TotalRefs != fp.TotalRefs {
		t.Fatalf("sampled profile lost reference counts: %d vs %d",
			sp.TotalRefs, fp.TotalRefs)
	}
	// The relationship structure survives: the hot pair still has the
	// dominant edge.
	na, nb := sp.Node(1), sp.Node(2)
	if sp.Graph.Weight(trg.MakeChunkKey(na, 0), trg.MakeChunkKey(nb, 0)) == 0 {
		t.Fatal("sampling lost the dominant relationship")
	}
}
