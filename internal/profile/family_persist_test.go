package profile_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// gccTrain records the gcc train input at 5% scale.
func gccTrain(tb testing.TB) []byte {
	tb.Helper()
	w, err := workload.Get("gcc")
	if err != nil {
		tb.Fatal(err)
	}
	in := w.Train()
	in.Bursts /= 20
	var buf bytes.Buffer
	if err := sim.RecordTrace(w, in, &buf, sim.DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func persisted(tb testing.TB, p *profile.Profile) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := persist.WriteProfile(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestFamilyMatchesProfileFrom is the family builder's differential gate
// on a real stream: over the gcc train trace, the queue of 256 bytes
// evicts from its second chunk on, the 4K queue only once gcc's working
// set outgrows it, and the 1M queue never. Each profile of the family
// must persist to the same bytes as its own sequential ProfileFrom, and
// report the same queue evictions and TRG edges, at 1, 2 and 4 shards,
// with sampling off and at 30 of every 100 references, under the default
// adaptive warmup and with fan-out forced.
func TestFamilyMatchesProfileFrom(t *testing.T) {
	tr := gccTrain(t)
	thresholds := []int64{4096, 1 << 20, 256}
	for _, sampled := range []bool{false, true} {
		base := sim.DefaultOptions()
		base.Parallelism = 1
		if sampled {
			base.Profile.SampleWindow, base.Profile.SamplePeriod = 30, 100
		}
		want := make([][]byte, len(thresholds))
		wantMC := make([]*metrics.Collector, len(thresholds))
		for i, q := range thresholds {
			opts := base
			opts.Profile.QueueThreshold = q
			opts.Metrics = metrics.New()
			src, err := sim.OpenReplay(bytes.NewReader(tr), opts)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := sim.ProfileFrom(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			want[i], wantMC[i] = persisted(t, pr.Profile), opts.Metrics
		}
		ev := func(i int) uint64 { return wantMC[i].Get(metrics.QueueEvictions) }
		if !(ev(2) > ev(0) && ev(0) > 0 && ev(1) == 0) {
			t.Fatalf("sampled=%v: evictions q256=%d q4K=%d q1M=%d, want q256 > q4K > q1M = 0", sampled, ev(2), ev(0), ev(1))
		}
		for _, shards := range []int{1, 2, 4} {
			for _, warmup := range []int{0, -1} {
				label := fmt.Sprintf("sampled=%v/shards=%d/warmup=%d", sampled, shards, warmup)
				src, err := sim.OpenReplay(bytes.NewReader(tr), base)
				if err != nil {
					t.Fatal(err)
				}
				cfgs := make([]profile.Config, len(thresholds))
				for i, q := range thresholds {
					cfgs[i] = base.Profile
					cfgs[i].QueueThreshold = q
					cfgs[i].AdaptiveWarmup = warmup
					cfgs[i].Metrics = metrics.New()
				}
				table := src.Objects()
				fam, err := profile.NewFamily(cfgs, table, shards, 8192)
				if err != nil {
					t.Fatal(err)
				}
				if err := src.Drive(trace.NewEnricher(table, fam)); err != nil {
					t.Fatal(err)
				}
				src.Close()
				for i, p := range fam.FinishAll() {
					if !bytes.Equal(persisted(t, p), want[i]) {
						t.Fatalf("%s: q%d profile diverged from ProfileFrom", label, thresholds[i])
					}
					for _, ctr := range []metrics.Counter{metrics.QueueEvictions, metrics.TRGEdges} {
						if g, w := cfgs[i].Metrics.Get(ctr), wantMC[i].Get(ctr); g != w {
							t.Fatalf("%s: q%d counter %v reads %d, ProfileFrom %d", label, thresholds[i], ctr, g, w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkFamilyScan builds the gcc train profiles of a 4K and a 1M
// queue at two shards, as one family and as two separate builders over
// two decodes: the family's scans and queue upkeep are shared.
func BenchmarkFamilyScan(b *testing.B) {
	tr := gccTrain(b)
	opts := sim.DefaultOptions()
	cfgs := []profile.Config{opts.Profile, opts.Profile}
	cfgs[0].QueueThreshold, cfgs[1].QueueThreshold = 4096, 1<<20
	run := func(b *testing.B, fams [][]profile.Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, fam := range fams {
				src, err := sim.OpenReplay(bytes.NewReader(tr), opts)
				if err != nil {
					b.Fatal(err)
				}
				s, err := profile.NewFamily(fam, src.Objects(), 2, 8192)
				if err != nil {
					b.Fatal(err)
				}
				if err := src.Drive(trace.NewEnricher(src.Objects(), s)); err != nil {
					b.Fatal(err)
				}
				src.Close()
				s.FinishAll()
			}
		}
	}
	b.Run("family", func(b *testing.B) { run(b, [][]profile.Config{cfgs}) })
	b.Run("separate", func(b *testing.B) { run(b, [][]profile.Config{cfgs[:1], cfgs[1:]}) })
}
