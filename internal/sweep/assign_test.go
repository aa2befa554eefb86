package sweep

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// cellGroupWeights is the assignGroups weight of each of p's layout
// groups, in the order buildGroups creates them: cells join groups by
// groupKey in cell order.
func cellGroupWeights(p *Prep) []int {
	var weights []int
	index := map[string]int{}
	for _, c := range p.cells {
		k := p.groupKey(c)
		i, ok := index[k]
		if !ok {
			i = len(weights)
			index[k] = i
			weights = append(weights, 1)
		}
		weights[i]++
	}
	return weights
}

// replayedGroupWeights is the assignGroups weight of each layout group
// RunShared replays for p: the groups buildGroups returns once identical
// CCDP layouts have merged.
func replayedGroupWeights(tb testing.TB, p *Prep) []int {
	tb.Helper()
	src, err := p.open(p.req.Test, p.req.Options)
	if err != nil {
		tb.Fatal(err)
	}
	defer src.Close()
	groups, _, _, err := p.buildGroups(src.Objects(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return groupWeights(groups)
}

// workerLoads sums each worker's planned weight.
func workerLoads(weights []int, plan [][]int) []int {
	loads := make([]int, len(plan))
	for w, gs := range plan {
		for _, g := range gs {
			loads[w] += weights[g]
		}
	}
	return loads
}

// checkPlan fails unless plan places every group exactly once and lists
// each worker's groups in ascending order.
func checkPlan(t *testing.T, weights []int, workers int, plan [][]int) {
	t.Helper()
	if len(plan) != workers {
		t.Fatalf("%d worker lists, want %d", len(plan), workers)
	}
	seen := make([]int, len(weights))
	for w, gs := range plan {
		for j, g := range gs {
			if g < 0 || g >= len(weights) {
				t.Fatalf("worker %d: group %d out of range", w, g)
			}
			if j > 0 && gs[j-1] >= g {
				t.Fatalf("worker %d: list %v not ascending", w, gs)
			}
			seen[g]++
		}
	}
	for g, n := range seen {
		if n != 1 {
			t.Fatalf("group %d placed %d times in %v", g, n, plan)
		}
	}
}

func TestAssignGroups(t *testing.T) {
	// The benchmark's sweep: one natural group of 16 members (weight 17)
	// and 16 single-member CCDP groups (weight 2). Layouts are the
	// innermost grid axis, so the natural group is group 0 or 1 — both
	// inside worker 0's half under a contiguous split (33 of 49 units).
	for _, at := range []int{0, 1} {
		weights := make([]int, 17)
		for i := range weights {
			weights[i] = 2
		}
		weights[at] = 17
		plan := assignGroups(weights, 2)
		checkPlan(t, weights, 2, plan)
		loads := workerLoads(weights, plan)
		if m := max(loads[0], loads[1]); m > 25 {
			t.Errorf("natural group at %d: loads %v, max %d > 25", at, loads, m)
		}
	}

	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		weights := make([]int, n)
		maxW := 0
		for i := range weights {
			weights[i] = 2 + r.Intn(20)
			maxW = max(maxW, weights[i])
		}
		for _, workers := range []int{1, 2, 3, 4, n, n + 3} {
			plan := assignGroups(weights, workers)
			checkPlan(t, weights, workers, plan)
			if again := assignGroups(weights, workers); !reflect.DeepEqual(plan, again) {
				t.Fatalf("weights %v at %d workers: plan %v then %v", weights, workers, plan, again)
			}
			if workers == 1 {
				for i, g := range plan[0] {
					if g != i {
						t.Fatalf("one worker: order %v, want identity", plan[0])
					}
				}
			}
			if workers >= n {
				for w, gs := range plan {
					if len(gs) > 1 {
						t.Fatalf("%d groups, %d workers: worker %d got %v", n, workers, w, gs)
					}
				}
				continue
			}
			// Greedy onto the least-loaded worker: the last group a
			// worker took arrived while it was the lightest, so no two
			// loads differ by more than the heaviest group.
			loads := workerLoads(weights, plan)
			lo, hi := loads[0], loads[0]
			for _, l := range loads {
				lo, hi = min(lo, l), max(hi, l)
			}
			if hi-lo > maxW {
				t.Fatalf("weights %v at %d workers: loads %v spread past %d", weights, workers, loads, maxW)
			}
		}
	}
}

// BenchmarkRunSharedReplay runs the shared engine over the repository
// benchmark's sweep grid (gcc: sizes 8K,16K x associativity 1,2,4,8 x
// lines 32,64 x natural,ccdp = 32 cells under 17 group keys, replayed as
// 11 layout groups once identical CCDP layouts merge) at reduced scale,
// on one and two workers. It reports the engine's time per replayed
// event, net of prep, and the max-over-mean worker load assignGroups
// plans for the replayed groups.
func BenchmarkRunSharedReplay(b *testing.B) {
	g := Grid{
		Sizes:   []int64{8192, 16384},
		Assocs:  []int{1, 2, 4, 8},
		Blocks:  []int64{32, 64},
		Layouts: []string{"natural", "ccdp"},
	}
	p := mustPrep(b, smallRequest(b, "gcc", 0.05, g))
	weights := replayedGroupWeights(b, p)
	total := 0
	for _, w := range weights {
		total += w
	}
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			workers := min(par, len(weights))
			loads := workerLoads(weights, assignGroups(weights, workers))
			peak := 0
			for _, l := range loads {
				peak = max(peak, l)
			}
			var nanos, events int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := p.RunShared(par)
				if err != nil {
					b.Fatal(err)
				}
				nanos += res.WallNanos - res.PrepNanos
				events += int64(res.Events)
			}
			b.ReportMetric(float64(nanos)/float64(events), "ns/event")
			b.ReportMetric(float64(peak)*float64(workers)/float64(total), "max/mean-load")
		})
	}
}
