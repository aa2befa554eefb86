package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/layout"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/trg"
	"repro/internal/workload"
)

// layoutOffsets extracts the cache offsets of all static placement nodes
// (stack, constants, globals) under a concrete layout.
func layoutOffsets(pr *ProfileResult, lay *layout.Layout, period int64) map[trg.NodeID]int64 {
	offs := make(map[trg.NodeID]int64)
	pr.Objects.ForEach(func(in *object.Info) {
		if in.Category == object.Heap {
			return
		}
		nd := pr.Profile.Node(in.ID)
		if nd == trg.NoNode {
			return
		}
		offs[nd] = int64(uint64(lay.Addr(in))) % period
	})
	return offs
}

// TestPredictionTracksMeasurement validates the TRG conflict metric: for
// conflict-bound workloads, the predicted conflict of the CCDP layout must
// be far below the natural layout's, and the measured conflict misses must
// move the same way. This is the closed loop the whole approach rests on:
// the profile's estimate of "misses if overlapped" has to predict real
// cache behaviour.
func TestPredictionTracksMeasurement(t *testing.T) {
	for _, name := range []string{"m88ksim", "compress", "fpppp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Classify = true
			in := quickInput(w, 0.3)

			pr, err := ProfilePass(w, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := Place(w, pr, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Rebuild the two layouts over the profiled table so node
			// bindings line up.
			natLay := layout.Natural(pr.Objects)
			ccdpLay, err := layout.FromPlacement(pr.Objects, pr.Profile, pm)
			if err != nil {
				t.Fatal(err)
			}
			period := pm.Period()
			predNat := placement.PredictConflict(pr.Profile, opts.Cache,
				layoutOffsets(pr, natLay, period))
			predCCDP := placement.PredictConflict(pr.Profile, opts.Cache,
				layoutOffsets(pr, ccdpLay, period))
			if predCCDP >= predNat {
				t.Fatalf("predicted conflict did not drop: natural %d, CCDP %d",
					predNat, predCCDP)
			}

			nat, err := evalLive(w, in, LayoutNatural, nil, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			ccdp, err := evalLive(w, in, LayoutCCDP, pr, pm, opts)
			if err != nil {
				t.Fatal(err)
			}
			mNat := nat.Stats.ClassMisses[cache.Conflict]
			mCCDP := ccdp.Stats.ClassMisses[cache.Conflict]
			if mCCDP >= mNat {
				t.Fatalf("measured conflict misses did not drop: natural %d, CCDP %d",
					mNat, mCCDP)
			}
			t.Logf("%s: predicted %d -> %d, measured conflict misses %d -> %d",
				name, predNat, predCCDP, mNat, mCCDP)
		})
	}
}

// TestPredictConflictEmptyLayout sanity-checks the helper.
func TestPredictConflictEmptyLayout(t *testing.T) {
	w, _ := workload.Get("compress")
	pr, err := ProfilePass(w, quickInput(w, 0.02), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := placement.PredictConflict(pr.Profile, cache.DefaultConfig, nil); got != 0 {
		t.Fatalf("empty layout predicted %d conflict", got)
	}
}
