package heapsim

import (
	"fmt"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/rng"
)

// checkArena fails unless a's free list is sorted by start, its blocks
// are non-empty, never overlap or abut (abutting blocks would have
// coalesced), and lie inside [base, brk), and free plus live bytes cover
// the arena exactly.
func checkArena(t *testing.T, op int, a *arena, live int64) {
	t.Helper()
	var free int64
	for i, b := range a.blocks {
		if b.size <= 0 {
			t.Fatalf("op %d: block %d [%#x,+%d) is empty", op, i, uint64(b.start), b.size)
		}
		if b.start < a.base || b.end() > a.brk {
			t.Fatalf("op %d: block %d [%#x,%#x) outside [%#x,%#x)", op, i,
				uint64(b.start), uint64(b.end()), uint64(a.base), uint64(a.brk))
		}
		if i > 0 {
			prev := a.blocks[i-1]
			if prev.end() > b.start {
				t.Fatalf("op %d: blocks %d and %d out of order or overlapping: [%#x,%#x) then [%#x,%#x)",
					op, i-1, i, uint64(prev.start), uint64(prev.end()), uint64(b.start), uint64(b.end()))
			}
			if prev.end() == b.start {
				t.Fatalf("op %d: blocks %d and %d abut at %#x without coalescing", op, i-1, i, uint64(b.start))
			}
		}
		free += b.size
	}
	if got, want := free+live, int64(a.brk-a.base); got != want {
		t.Fatalf("op %d: arena at %#x: free %d + live %d = %d, want brk-base %d",
			op, uint64(a.base), free, live, got, want)
	}
}

// churn drives n seeded allocs and frees through alloc, checking every
// arena after each operation. Sizes, names and the clock step are drawn
// so that temporal-fit epochs turn over and frees coalesce both ways.
func churn(t *testing.T, seed uint64, n int, alloc Allocator, arenas []*arena) {
	t.Helper()
	r := rng.New(seed)
	type blk struct {
		at   addrspace.Addr
		size int64
	}
	var live []blk
	liveIn := make([]int64, len(arenas))
	owner := func(at addrspace.Addr) int {
		for i, a := range arenas {
			if at >= a.base && at < a.limit {
				return i
			}
		}
		t.Fatalf("address %#x is in no arena", uint64(at))
		return -1
	}
	var now uint64
	for op := 0; op < n; op++ {
		now += uint64(r.Intn(4000))
		if len(live) > 0 && r.Intn(5) < 2 {
			k := r.Intn(len(live))
			b := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			alloc.Free(b.at, b.size, now)
			liveIn[owner(b.at)] -= roundSize(b.size)
		} else {
			size := int64(1 + r.Intn(300))
			at := alloc.Alloc(size, uint64(r.Intn(8)), now)
			live = append(live, blk{at, size})
			liveIn[owner(at)] += roundSize(size)
		}
		for i, a := range arenas {
			checkArena(t, op, a, liveIn[i])
		}
	}
}

// TestFreeListInvariants holds every allocator's free lists to their
// structural invariants under seeded random alloc/free sequences.
func TestFreeListInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("first/%d", seed), func(t *testing.T) {
			f := NewFirstFit()
			churn(t, seed, 1500, f, []*arena{f.a})
		})
		t.Run(fmt.Sprintf("temporal/%d", seed), func(t *testing.T) {
			tf := NewTemporalFit()
			churn(t, seed, 1500, tf, []*arena{tf.a})
		})
		t.Run(fmt.Sprintf("random/%d", seed), func(t *testing.T) {
			rf := NewRandomFit(seed)
			churn(t, seed, 1500, rf, []*arena{rf.a})
		})
		t.Run(fmt.Sprintf("custom/%d", seed), func(t *testing.T) {
			// Names 0-5 hit the table with every mix of bin and preferred
			// offset; 6 and 7 miss and fall back to the default arena.
			m := &placement.Map{
				Cache: cache.DefaultConfig,
				HeapPlans: map[uint64]placement.HeapPlan{
					0: {Bin: 0, PrefOffset: placement.NoPreference},
					1: {Bin: 1, PrefOffset: placement.NoPreference},
					2: {Bin: 0, PrefOffset: 1024},
					3: {Bin: 1, PrefOffset: 4096 + 32},
					4: {Bin: -1, PrefOffset: 2048},
					5: {Bin: -1, PrefOffset: placement.NoPreference},
				},
				NumBins: 2,
			}
			c := NewCustom(m)
			churn(t, seed, 1500, c, append([]*arena{c.def}, c.bins...))
			if st := c.Stats(); st.PrefPlaced == 0 || st.BinAllocs == 0 {
				t.Fatalf("stream missed the bin or preferred-offset paths: %+v", st)
			}
		})
	}
}

// fragmentedTemporalFit returns a temporal-fit allocator whose free list
// holds four separated 64-byte holes, all in one recency epoch.
func fragmentedTemporalFit() *TemporalFit {
	tf := NewTemporalFit()
	var blocks []addrspace.Addr
	for i := 0; i < 8; i++ {
		blocks = append(blocks, tf.Alloc(64, 0, 1))
	}
	tf.Alloc(64, 0, 1) // guard against the wilderness
	for i := 0; i < len(blocks); i += 2 {
		tf.Free(blocks[i], 64, 2)
	}
	return tf
}

// TestTemporalFitCycleZeroAlloc pins that a warmed-up alloc/free cycle
// reuses the free list's backing array: the alloc carves the newest
// hole, leaving a remnant ahead of other holes, and the free coalesces it
// back.
func TestTemporalFitCycleZeroAlloc(t *testing.T) {
	tf := fragmentedTemporalFit()
	now := uint64(3)
	cycle := func() {
		now++
		at := tf.Alloc(24, 0, now)
		tf.Free(at, 24, now)
	}
	cycle()
	if got := len(tf.a.blocks); got != 4 {
		t.Fatalf("warm free list has %d blocks, want 4", got)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("temporal-fit alloc/free cycle allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkArenaAlloc times temporal-fit churn: each op frees the oldest
// of 256 live blocks and allocates a new one, so allocations carve
// fragmented free space rather than extend the arena.
func BenchmarkArenaAlloc(b *testing.B) {
	const window = 256
	r := rng.New(1)
	sizes := make([]int64, 1024)
	for i := range sizes {
		sizes[i] = int64(8 + r.Intn(256))
	}
	tf := NewTemporalFit()
	live := make([]addrspace.Addr, window)
	liveSize := make([]int64, window)
	var now uint64
	for i := range live {
		now++
		liveSize[i] = sizes[i]
		live[i] = tf.Alloc(liveSize[i], 0, now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		k := i % window
		tf.Free(live[k], liveSize[k], now)
		liveSize[k] = sizes[(i+window)%len(sizes)]
		live[k] = tf.Alloc(liveSize[k], 0, now)
	}
}
