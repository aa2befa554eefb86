package sweep

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// refGrowth replays a trace and counts how often a per-object counter,
// pre-sized to the header's table and grown to half again past any
// out-of-range reference, would grow.
type refGrowth struct {
	n       int
	growths int
}

func (g *refGrowth) HandleEvent(ev trace.Event) {
	if ev.Kind != trace.Load && ev.Kind != trace.Store {
		return
	}
	if n := int(ev.Obj) + 1; n > g.n {
		g.n = n + n/2
		g.growths++
	}
}

// TestStampedTalliesMatchIndependent holds the replay's once-per-reference
// tally to independent per-cell replays on a stream whose heap objects,
// born mid-replay, push the per-object counters past their growth
// boundary more than once. The grid mixes plain cells with a classifying
// cell, an attributed cell and hierarchy cells, and its larger caches
// leave some referenced objects without a single miss.
func TestStampedTalliesMatchIndependent(t *testing.T) {
	g := Grid{
		Sizes:   []int64{4096, 65536},
		Assocs:  []int{1, 8},
		Layouts: []string{"natural", "ccdp"},
		L2:      []L2Point{{Size: 256 * 1024, Block: 32, Assoc: 4, TLB: 32}},
	}
	p := mustPrep(t, smallRequest(t, "gcc", 0.05, g))
	const classified, attributed = 0, 3
	p.cellOpts[classified].Classify = true
	p.cells[attributed].Attribution = true
	p.cellOpts[attributed] = p.cells[attributed].Options(p.req.Options)

	src, err := sim.OpenReplay(bytes.NewReader(p.testTrace), p.req.Options)
	if err != nil {
		t.Fatal(err)
	}
	start := src.Objects().Len()
	growth := &refGrowth{n: start}
	if err := src.Drive(growth); err != nil {
		t.Fatal(err)
	}
	t.Logf("per-object counters: %d pre-sized, %d after %d growths", start, growth.n, growth.growths)
	if growth.growths < 2 {
		t.Fatalf("per-object counters grew %d times in the test trace, want at least 2", growth.growths)
	}

	ind, err := p.RunIndependent(2)
	if err != nil {
		t.Fatal(err)
	}
	neverMissed := false
	for i, c := range ind.Cells {
		if c.Eval == nil {
			continue
		}
		if len(c.Eval.ObjRefs) != growth.n {
			t.Fatalf("cell %d: %d per-object counters, want %d", i, len(c.Eval.ObjRefs), growth.n)
		}
		for obj, refs := range c.Eval.ObjRefs {
			if refs > 0 && c.Eval.ObjMisses[obj] == 0 {
				neverMissed = true
			}
		}
	}
	if !neverMissed {
		t.Fatal("every referenced object missed in every cell; the grid does not exercise never-missing objects")
	}
	for _, par := range []int{1, 3} {
		shared, err := p.RunShared(par)
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		if shared.Cells[classified].Eval.Stats.ClassMisses == [3]uint64{} {
			t.Fatalf("parallel %d: classifying cell recorded no miss classes", par)
		}
		if shared.Cells[attributed].Eval.Attribution == nil {
			t.Fatalf("parallel %d: attributed cell has no attribution", par)
		}
		if err := DiffResults(shared, ind); err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
	}
}
