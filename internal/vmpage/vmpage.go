// Package vmpage tracks virtual-memory page usage and working-set size for
// the paging study (Table 5 of the paper).
//
// The paper reports, per program, the total number of 8 KByte pages used
// during execution and the working-set size computed over a window (tau)
// of 1% of total execution time. We measure time in data references.
package vmpage

import "repro/internal/addrspace"

// Tracker accumulates page statistics over an address stream. The window
// is a fraction of the stream's length, which is known only at its end,
// so the tracker logs each reference whose pages differ from the one
// before and folds the log into windows when asked.
type Tracker struct {
	frac float64 // window length as a fraction of all references
	refs uint64  // references so far
	log  []touch // the references that changed page
}

// touch is one logged reference: its index and the pages it spans.
type touch struct{ ref, first, last uint64 }

// NewTracker creates a tracker whose working-set window is
// floor(references × frac) long. A window of 0 disables working-set
// sampling (total pages still counted).
func NewTracker(frac float64) *Tracker { return &Tracker{frac: frac} }

// Touch records one reference of size bytes at addr.
func (t *Tracker) Touch(addr addrspace.Addr, size int64) {
	if size <= 0 {
		size = 1
	}
	first, last := addr.Page(), (addr + addrspace.Addr(size) - 1).Page()
	if n := len(t.log); n == 0 || t.log[n-1].first != first || t.log[n-1].last != last {
		t.log = append(t.log, touch{t.refs, first, last})
	}
	t.refs++
}

// TotalPages returns the number of distinct pages touched overall.
func (t *Tracker) TotalPages() int {
	all := make(map[uint64]struct{})
	for _, e := range t.log {
		e.addTo(all)
	}
	return len(all)
}

// WorkingSet returns the average number of distinct pages per window. A
// final partial window is folded in so short runs still report something.
func (t *Tracker) WorkingSet() float64 {
	w := uint64(float64(t.refs) * t.frac)
	if w == 0 || t.refs == 0 {
		return 0
	}
	var samples, sum uint64
	win := make(map[uint64]struct{}) // pages of window k so far
	k := uint64(0)
	// moveTo closes window k and the windows after it that the
	// reference run of log entry cur fills alone, then opens window to,
	// whose first reference continues cur's run unless open is false.
	moveTo := func(to uint64, cur touch, open bool) {
		skipped := to - k - 1
		samples += 1 + skipped
		sum += uint64(len(win)) + skipped*(cur.last-cur.first+1)
		clear(win)
		if open {
			cur.addTo(win)
		}
		k = to
	}
	for i, e := range t.log {
		if e.ref/w != k {
			moveTo(e.ref/w, t.log[i-1], e.ref%w != 0)
		}
		e.addTo(win)
	}
	if end := (t.refs - 1) / w; end != k {
		moveTo(end, t.log[len(t.log)-1], true)
	}
	samples++
	sum += uint64(len(win))
	return float64(sum) / float64(samples)
}

// addTo adds the pages the touch spans to set.
func (e touch) addTo(set map[uint64]struct{}) {
	for p := e.first; p <= e.last; p++ {
		set[p] = struct{}{}
	}
}
