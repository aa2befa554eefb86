package persist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trg"
	"repro/internal/workload"
)

// realArtifacts profiles and places a reduced espresso run.
func realArtifacts(t *testing.T) (*sim.ProfileResult, *placement.Map) {
	t.Helper()
	w, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	in := w.Train()
	in.Bursts /= 20
	opts := sim.DefaultOptions()
	pr, err := sim.ProfilePass(w, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sim.Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pr, pm
}

func TestProfileRoundTrip(t *testing.T) {
	pr, _ := realArtifacts(t)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, pr.Profile); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig := pr.Profile
	if got.TotalRefs != orig.TotalRefs {
		t.Fatalf("total refs %d vs %d", got.TotalRefs, orig.TotalRefs)
	}
	if got.Graph.NumNodes() != orig.Graph.NumNodes() {
		t.Fatalf("nodes %d vs %d", got.Graph.NumNodes(), orig.Graph.NumNodes())
	}
	if got.Graph.NumEdges() != orig.Graph.NumEdges() {
		t.Fatalf("edges %d vs %d", got.Graph.NumEdges(), orig.Graph.NumEdges())
	}
	if got.Graph.TotalWeight() != orig.Graph.TotalWeight() {
		t.Fatalf("weight %d vs %d", got.Graph.TotalWeight(), orig.Graph.TotalWeight())
	}
	// Edge-exact comparison.
	orig.Graph.ForEachEdge(func(a, b trg.ChunkKey, w uint64) {
		if got.Graph.Weight(a, b) != w {
			t.Fatalf("edge (%d,%d): %d vs %d", a, b, got.Graph.Weight(a, b), w)
		}
	})
	// Node metadata and binding.
	for i := 0; i < orig.Graph.NumNodes(); i++ {
		no, ng := orig.Graph.Node(trg.NodeID(i)), got.Graph.Node(trg.NodeID(i))
		if no.Category != ng.Category || no.Size != ng.Size || no.Name != ng.Name ||
			no.XORName != ng.XORName || no.Popular != ng.Popular {
			t.Fatalf("node %d differs: %+v vs %+v", i, no, ng)
		}
	}
	if len(got.NodeOf) != len(orig.NodeOf) {
		t.Fatalf("nodeof %d vs %d", len(got.NodeOf), len(orig.NodeOf))
	}
	for i := range orig.NodeOf {
		if got.NodeOf[i] != orig.NodeOf[i] {
			t.Fatalf("binding %d differs", i)
		}
	}
	for x, nd := range orig.HeapNode {
		if got.HeapNode[x] != nd {
			t.Fatalf("heap node for %#x differs", x)
		}
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	_, pm := realArtifacts(t)
	var buf bytes.Buffer
	if err := WritePlacement(&buf, pm); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlacement(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache != pm.Cache {
		t.Fatalf("cache %+v vs %+v", got.Cache, pm.Cache)
	}
	if got.StackStart != pm.StackStart || got.GlobalSegStart != pm.GlobalSegStart ||
		got.GlobalSegSize != pm.GlobalSegSize || got.NumBins != pm.NumBins ||
		got.PredictedConflict != pm.PredictedConflict {
		t.Fatal("scalar fields differ")
	}
	if len(got.GlobalLayout) != len(pm.GlobalLayout) {
		t.Fatalf("slots %d vs %d", len(got.GlobalLayout), len(pm.GlobalLayout))
	}
	for i := range pm.GlobalLayout {
		if got.GlobalLayout[i] != pm.GlobalLayout[i] {
			t.Fatalf("slot %d differs", i)
		}
	}
	if len(got.HeapPlans) != len(pm.HeapPlans) {
		t.Fatalf("plans %d vs %d", len(got.HeapPlans), len(pm.HeapPlans))
	}
	for x, pl := range pm.HeapPlans {
		if got.HeapPlans[x] != pl {
			t.Fatalf("plan %#x differs", x)
		}
	}
	for nd, off := range pm.PreferredOffset {
		if got.PreferredOffset[nd] != off {
			t.Fatalf("preferred offset for node %d differs", nd)
		}
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	pr, pm := realArtifacts(t)
	var b1, b2 bytes.Buffer
	if err := WriteProfile(&b1, pr.Profile); err != nil {
		t.Fatal(err)
	}
	if err := WriteProfile(&b2, pr.Profile); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("profile serialization not deterministic")
	}
	b1.Reset()
	b2.Reset()
	if err := WritePlacement(&b1, pm); err != nil {
		t.Fatal(err)
	}
	if err := WritePlacement(&b2, pm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("placement serialization not deterministic")
	}
}

func TestLoadedPlacementDrivesEvaluation(t *testing.T) {
	// The whole point: a placement loaded from disk must reproduce the
	// exact miss rates of the in-memory one.
	w, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	in := w.Train()
	in.Bursts /= 20
	opts := sim.DefaultOptions()
	pr, pm := realArtifacts(t)

	var pbuf, mbuf bytes.Buffer
	if err := WriteProfile(&pbuf, pr.Profile); err != nil {
		t.Fatal(err)
	}
	if err := WritePlacement(&mbuf, pm); err != nil {
		t.Fatal(err)
	}
	lp, err := ReadProfile(&pbuf)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := ReadPlacement(&mbuf)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, sim.LayoutCCDP, pr, pm, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := sim.EvalFrom(sim.Live(w, in, opts), w.Name(), w.HeapPlacement(), in, sim.LayoutCCDP, &sim.ProfileResult{Profile: lp}, lm, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Stats.Misses != loaded.Stats.Misses {
		t.Fatalf("loaded placement misses %d, direct %d",
			loaded.Stats.Misses, direct.Stats.Misses)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := ReadProfile(strings.NewReader("not a profile\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadProfile(strings.NewReader(profileMagic + "\nconfig x y z\n")); err == nil {
		t.Fatal("malformed config accepted")
	}
	if _, err := ReadProfile(strings.NewReader(profileMagic + "\n")); err == nil {
		t.Fatal("truncated profile accepted")
	}
}

func TestReadPlacementRejectsGarbage(t *testing.T) {
	if _, err := ReadPlacement(strings.NewReader("nope\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadPlacement(strings.NewReader(placementMagic + "\ncache 999 32 1\n")); err == nil {
		t.Fatal("invalid cache geometry accepted")
	}
}
