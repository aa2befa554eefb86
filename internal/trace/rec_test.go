package trace

import (
	"testing"
	"unsafe"

	"repro/internal/object"
)

// TestRecStays32Bytes pins the record's size: More rides in the padding
// after NonUnique.
func TestRecStays32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Rec{}); n != 32 {
		t.Fatalf("Rec is %d bytes, want 32", n)
	}
}

// TestAppendFoldsOnlyAscendingRuns walks the folding rule case by case:
// an access folds into the record before it only when it has the same
// kind, object and non-zero size and starts where the run ends, and a run
// holds at most 256 accesses. Allocs and Frees never fold and end a run.
// Every event is tallied either way.
func TestAppendFoldsOnlyAscendingRuns(t *testing.T) {
	tbl := object.NewTable(1024)
	a := tbl.AddGlobal("a", 4096)
	b := tbl.AddGlobal("b", 4096)
	h := tbl.AddHeap("h", 64, 7, 0)
	ld := func(obj object.ID, off, size int64) Event { return Event{Kind: Load, Obj: obj, Off: off, Size: size} }
	st := func(obj object.ID, off, size int64) Event { return Event{Kind: Store, Obj: obj, Off: off, Size: size} }
	run := func(n int) []Event {
		var evs []Event
		for i := 0; i < n; i++ {
			evs = append(evs, ld(a, int64(i), 1))
		}
		return evs
	}
	cases := []struct {
		name string
		evs  []Event
		more []uint8 // each record's More
	}{
		{"ascending run", []Event{ld(a, 0, 8), ld(a, 8, 8), ld(a, 16, 8)}, []uint8{2}},
		{"descending", []Event{ld(a, 16, 8), ld(a, 8, 8)}, []uint8{0, 0}},
		{"gap", []Event{ld(a, 0, 8), ld(a, 12, 8)}, []uint8{0, 0}},
		{"overlap", []Event{ld(a, 0, 8), ld(a, 4, 8)}, []uint8{0, 0}},
		{"kind", []Event{ld(a, 0, 8), st(a, 8, 8), st(a, 16, 8)}, []uint8{0, 1}},
		{"size", []Event{ld(a, 0, 8), ld(a, 8, 4)}, []uint8{0, 0}},
		{"object", []Event{ld(a, 0, 8), ld(b, 8, 8)}, []uint8{0, 0}},
		{"zero size", []Event{ld(a, 0, 0), ld(a, 0, 0)}, []uint8{0, 0}},
		{"alloc", []Event{ld(a, 0, 8), {Kind: Alloc, Obj: h, Size: 64}, ld(a, 8, 8)}, []uint8{0, 0, 0}},
		{"free", []Event{ld(h, 0, 8), {Kind: Free, Obj: h}, ld(h, 8, 8)}, []uint8{0, 0, 0}},
		{"cap", run(600), []uint8{255, 255, 87}},
	}
	for _, c := range cases {
		en := NewEnricher(tbl, nil)
		recs := en.Append(nil, c.evs...)
		var more []uint8
		for _, r := range recs {
			more = append(more, r.More)
		}
		if string(more) != string(c.more) {
			t.Errorf("%s: records' More %v, want %v", c.name, more, c.more)
		}
		if got := en.Counter.Refs() + en.Counter.Allocs + en.Counter.Frees; got != uint64(len(c.evs)) {
			t.Errorf("%s: tallied %d events of %d", c.name, got, len(c.evs))
		}
		// A record batch of one never folds.
		for _, ev := range c.evs {
			if r := en.Append(nil, ev); len(r) != 1 || r[0].More != 0 {
				t.Errorf("%s: one event appended to an empty batch gave %+v", c.name, r)
			}
		}
	}
}
