package profile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/trg"
)

// familyThresholds are one queue that evicts from its second chunk on,
// one that evicts only once the working set outgrows it, and one that
// never evicts on the test workloads.
var familyThresholds = []int64{256, 1024, 1 << 20}

func runFamily(t *testing.T, cfgs []Config, wl workload, shards int) []*Profile {
	t.Helper()
	tbl := object.NewTable(1024)
	s, err := NewFamily(cfgs, tbl, shards, 8192)
	if err != nil {
		t.Fatal(err)
	}
	em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, s))
	wl.run(tbl, em)
	em.Flush()
	return s.FinishAll()
}

// TestFamilyMatchesSequential holds a family build to one sequential
// Profiler per threshold, on every shard workload — the heap churn one
// grows heap nodes, so a smaller queue re-queues a chunk at a larger size
// than the largest queue holds it — at several shard counts, schedules
// and sampling settings, in a shuffled config order. Each profile's
// counters must read what its own run reports.
func TestFamilyMatchesSequential(t *testing.T) {
	for _, wl := range shardWorkloads {
		for _, sampled := range []bool{false, true} {
			for _, warmup := range []int{0, -1} {
				base := smallConfig()
				base.AdaptiveWarmup = warmup
				if sampled {
					base.SampleWindow, base.SamplePeriod = 30, 100
				}
				order := []int{1, 2, 0}
				want := make([]*Profile, len(order))
				seqMC := make([]*metrics.Collector, len(order))
				for i, ti := range order {
					cfg := base
					cfg.QueueThreshold = familyThresholds[ti]
					cfg.Metrics = metrics.New()
					seqMC[i] = cfg.Metrics
					want[i] = runSequential(t, cfg, wl)
				}
				for _, shards := range []int{1, 2, 4} {
					cfgs := make([]Config, len(order))
					for i, ti := range order {
						cfgs[i] = base
						cfgs[i].QueueThreshold = familyThresholds[ti]
						cfgs[i].Metrics = metrics.New()
					}
					got := runFamily(t, cfgs, wl, shards)
					for i := range order {
						label := fmt.Sprintf("%s/sampled=%v/warmup=%d/shards=%d/q%d", wl.name, sampled, warmup, shards, cfgs[i].QueueThreshold)
						requireEqualProfiles(t, want[i], got[i], label)
						if got[i].Config.QueueThreshold != cfgs[i].QueueThreshold {
							t.Fatalf("%s: profile carries threshold %d", label, got[i].Config.QueueThreshold)
						}
						for _, ctr := range []metrics.Counter{metrics.QueueEvictions, metrics.TRGEdges, metrics.TRGWeight} {
							if g, w := cfgs[i].Metrics.Get(ctr), seqMC[i].Get(ctr); g != w {
								t.Errorf("%s: counter %v reads %d, its own run %d", label, ctr, g, w)
							}
						}
					}
				}
				if seqMC[2].Get(metrics.QueueEvictions) == 0 || seqMC[1].Get(metrics.QueueEvictions) != 0 {
					t.Fatalf("%s: evictions %d at q%d and %d at q%d, want some and none", wl.name,
						seqMC[2].Get(metrics.QueueEvictions), familyThresholds[0],
						seqMC[1].Get(metrics.QueueEvictions), familyThresholds[2])
				}
			}
		}
	}
}

// TestNestedQueueMatchesOwnQueue steps one queue with nested thresholds
// and one separate queue per threshold through seeded touches whose
// chunk sizes grow over time, as heap chunks do, and compares every
// nested queue with its separate queue after each touch: the same keys
// in the same order, at the same sizes, with the same evictions.
func TestNestedQueueMatchesOwnQueue(t *testing.T) {
	thresholds := []int64{256, 512, 1000, 2048, 4096}
	r := rand.New(rand.NewSource(5))
	var big recencyQueue
	big.init(8192, nil)
	big.nest(thresholds)
	own := make([]recencyQueue, len(thresholds))
	for j, th := range thresholds {
		own[j].init(th, nil)
	}
	sizes := make([]int64, 64)
	for i := range sizes {
		sizes[i] = 8 + 8*int64(r.Intn(8))
	}
	step := func(q *recencyQueue, key trg.ChunkKey, size int64) {
		if e := q.get(key); e != nil {
			q.hit(e, size)
		} else {
			q.insert(key, size)
		}
	}
	for i := 0; i < 20000; i++ {
		k := r.Intn(len(sizes))
		if r.Intn(50) == 0 && sizes[k] < 256 {
			sizes[k] += 8 * int64(1+r.Intn(4)) // the chunk's node grew
			sizes[k] = min(sizes[k], 256)
		}
		key := trg.MakeChunkKey(trg.NodeID(k), 0)
		step(&big, key, sizes[k])
		for j := range own {
			step(&own[j], key, sizes[k])
			l, o := &big.lower[j], &own[j]
			x, n := big.head, 0
			for y := o.head; y != nil; y, x = y.next, x.next {
				if x.key != y.key || x.in&(1<<j) == 0 || x.sizes[j] != y.size {
					t.Fatalf("touch %d, q%d: nested queue diverged from its own at key %x", i, thresholds[j], y.key)
				}
				n++
			}
			if x != nil && x.in&(1<<j) != 0 {
				t.Fatalf("touch %d, q%d: nested queue holds key %x past its own queue's tail", i, thresholds[j], x.key)
			}
			if l.n != n || l.bytes != o.bytes || l.evicted != o.evicted {
				t.Fatalf("touch %d, q%d: nested n=%d bytes=%d evicted=%d, own n=%d bytes=%d evicted=%d",
					i, thresholds[j], l.n, l.bytes, l.evicted, n, o.bytes, o.evicted)
			}
		}
	}
}

// TestFamilyRejectsMixedConfigs pins NewFamily's contract: one builder
// serves only configs that differ in queue threshold.
func TestFamilyRejectsMixedConfigs(t *testing.T) {
	a, b := smallConfig(), smallConfig()
	b.ChunkSize = 128
	if _, err := NewFamily([]Config{a, b}, object.NewTable(16), 1, 0); err == nil {
		t.Fatal("family of two chunk sizes accepted")
	}
	if _, err := NewFamily(nil, object.NewTable(16), 1, 0); err == nil {
		t.Fatal("empty family accepted")
	}
	cfgs := make([]Config, MaxFamily+1)
	for i := range cfgs {
		cfgs[i] = smallConfig()
		cfgs[i].QueueThreshold = int64(256 * (i + 1))
	}
	if _, err := NewFamily(cfgs, object.NewTable(16), 1, 0); err == nil {
		t.Fatalf("family of %d configs accepted", len(cfgs))
	}
}
