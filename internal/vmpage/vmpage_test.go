package vmpage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addrspace"
)

func TestTotalPages(t *testing.T) {
	tr := NewTracker(0)
	tr.Touch(0, 8)
	tr.Touch(addrspace.PageSize, 8)
	tr.Touch(addrspace.PageSize+100, 8)
	tr.Touch(3*addrspace.PageSize, 8)
	if got := tr.TotalPages(); got != 3 {
		t.Fatalf("total pages %d, want 3", got)
	}
}

func TestSpanningTouch(t *testing.T) {
	tr := NewTracker(0)
	tr.Touch(addrspace.PageSize-4, 8) // straddles pages 0 and 1
	if got := tr.TotalPages(); got != 2 {
		t.Fatalf("total pages %d, want 2", got)
	}
}

func TestWorkingSetWindows(t *testing.T) {
	tr := NewTracker(0.5) // 8 references: windows of 4
	// Window 1: pages 0, 1 -> 2 distinct.
	tr.Touch(0, 1)
	tr.Touch(addrspace.PageSize, 1)
	tr.Touch(0, 1)
	tr.Touch(addrspace.PageSize, 1)
	// Window 2: page 5 only -> 1 distinct.
	for i := 0; i < 4; i++ {
		tr.Touch(5*addrspace.PageSize, 1)
	}
	if got := tr.WorkingSet(); got != 1.5 {
		t.Fatalf("working set %g, want 1.5", got)
	}
}

func TestWorkingSetPartialWindow(t *testing.T) {
	tr := NewTracker(50) // 2 references: a window of 100
	tr.Touch(0, 1)
	tr.Touch(addrspace.PageSize, 1)
	// Only a partial window: it should still report something.
	if got := tr.WorkingSet(); got != 2 {
		t.Fatalf("partial-window working set %g, want 2", got)
	}
}

func TestWorkingSetDisabled(t *testing.T) {
	tr := NewTracker(0)
	tr.Touch(0, 1)
	if got := tr.WorkingSet(); got != 0 {
		t.Fatalf("disabled working set %g, want 0", got)
	}
	if tr.TotalPages() != 1 {
		t.Fatal("total pages should still count with sampling disabled")
	}
}

func TestZeroSizeTouch(t *testing.T) {
	tr := NewTracker(0)
	tr.Touch(42, 0)
	if tr.TotalPages() != 1 {
		t.Fatal("zero-size touch should count one page")
	}
}

// ref is one reference of the oracle's stream.
type ref struct {
	addr uint64
	size int64
}

// pagesOf lists the pages a reference spans, by plain division.
func pagesOf(r ref) []uint64 {
	size := uint64(r.size)
	if r.size <= 0 {
		size = 1
	}
	var ps []uint64
	for p := r.addr / 8192; p <= (r.addr+size-1)/8192; p++ {
		ps = append(ps, p)
	}
	return ps
}

// bruteForce computes total pages and the working set of refs by
// counting each window's distinct pages from scratch: windows of
// floor(len × frac) references, the last one possibly partial, and no
// working set when the window is empty.
func bruteForce(refs []ref, frac float64) (int, float64) {
	all := map[uint64]bool{}
	for _, r := range refs {
		for _, p := range pagesOf(r) {
			all[p] = true
		}
	}
	w := int(float64(len(refs)) * frac)
	if w == 0 {
		return len(all), 0
	}
	sum, samples := 0, 0
	for start := 0; start < len(refs); start += w {
		seen := map[uint64]bool{}
		for _, r := range refs[start:min(start+w, len(refs))] {
			for _, p := range pagesOf(r) {
				seen[p] = true
			}
		}
		sum += len(seen)
		samples++
	}
	return len(all), float64(sum) / float64(samples)
}

// TestTrackerMatchesBruteForce holds the post-pass tracker to the
// brute-force count on seeded random streams: runs on one page, touches
// that straddle a page boundary, zero-size touches, window lengths that
// leave a final partial window or divide the stream exactly, and
// streams whose refs × frac is below one.
func TestTrackerMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		n := 1 + rnd.Intn(600)
		refs := make([]ref, n)
		page := uint64(rnd.Intn(8))
		for i := range refs {
			if rnd.Intn(4) == 0 {
				page = uint64(rnd.Intn(12))
			}
			r := ref{addr: page*8192 + uint64(rnd.Intn(8192)), size: int64(1 << rnd.Intn(4))}
			switch rnd.Intn(10) {
			case 0: // straddle into the next page
				r.addr, r.size = page*8192+8190, 8
			case 1:
				r.size = 0
			case 2: // span three pages
				r.addr, r.size = page*8192+100, 2*8192
			}
			refs[i] = r
		}
		fracs := []float64{0, 0.5 / float64(n), 1 / float64(n), 0.01, 0.07, 0.1, 0.25, 1.0 / 3, 0.5, 1, 3}
		for _, frac := range fracs {
			t.Run(fmt.Sprintf("seed%d/n%d/frac%g", seed, n, frac), func(t *testing.T) {
				tr := NewTracker(frac)
				for _, r := range refs {
					tr.Touch(addrspace.Addr(r.addr), r.size)
				}
				wantTotal, wantWS := bruteForce(refs, frac)
				if got := tr.TotalPages(); got != wantTotal {
					t.Errorf("total pages %d, want %d", got, wantTotal)
				}
				if got := tr.WorkingSet(); got != wantWS {
					t.Errorf("working set %v, want %v", got, wantWS)
				}
			})
		}
	}
}
