package sim

import (
	"bytes"
	"testing"

	"repro/internal/persist"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recCollector keeps every record an enricher hands it.
type recCollector struct{ recs []trace.Rec }

func (c *recCollector) HandleRecs(recs []trace.Rec) { c.recs = append(c.recs, recs...) }

// TestHandleRecsBatchingIdentity feeds one enriched record stream to both
// profilers in batches of 1, 7, 1024 and 4096 records, with time sampling
// off and on: batch boundaries only move the schedule, so every persisted
// profile must equal ProfileFrom's byte for byte.
func TestHandleRecsBatchingIdentity(t *testing.T) {
	w, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	in := quickInput(w, 0.05)
	var trace0 bytes.Buffer
	if err := RecordTrace(w, in, &trace0, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	persisted := func(p *profile.Profile) []byte {
		var buf bytes.Buffer
		if err := persist.WriteProfile(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, sampled := range []bool{false, true} {
		opts := DefaultOptions()
		if sampled {
			opts.Profile.SampleWindow, opts.Profile.SamplePeriod = 30, 100
		}
		pr, err := ProfileFromTrace(bytes.NewReader(trace0.Bytes()), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := persisted(pr.Profile)

		for _, sharded := range []bool{false, true} {
			for _, size := range []int{1, 7, 1024, 4096} {
				src, err := OpenReplay(bytes.NewReader(trace0.Bytes()), opts)
				if err != nil {
					t.Fatal(err)
				}
				table := src.Objects()
				var col recCollector
				if err := src.Drive(trace.NewEnricher(table, &col)); err != nil {
					t.Fatal(err)
				}
				var prof profiler
				if sharded {
					prof, err = profile.NewSharded(opts.Profile, table, 2, opts.Cache.Size)
				} else {
					prof, err = profile.New(opts.Profile, table)
				}
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(col.recs); lo += size {
					prof.HandleRecs(col.recs[lo:min(lo+size, len(col.recs))])
				}
				if got := persisted(prof.Finish()); !bytes.Equal(got, want) {
					t.Errorf("sampled=%v sharded=%v batch=%d: persisted profile differs from ProfileFrom's (%d vs %d bytes)",
						sampled, sharded, size, len(got), len(want))
				}
			}
		}
	}
}

// TestEnricherTalliesMatchCounter holds the enricher's one-pass tally to a
// plain trace.Counter over the same stream, and its records to the
// stream's events: each access record stands for More+1 accesses, each
// Alloc and Free for itself, and gcc's runs of adjacent accesses fold
// into fewer records than events.
func TestEnricherTalliesMatchCounter(t *testing.T) {
	w, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	in := quickInput(w, 0.05)
	src := Live(w, in, DefaultOptions())
	var col recCollector
	en := trace.NewEnricher(src.Objects(), &col)
	if err := src.Drive(en); err != nil {
		t.Fatal(err)
	}
	src = Live(w, in, DefaultOptions())
	ctr := trace.NewCounter(src.Objects())
	if err := src.Drive(ctr); err != nil {
		t.Fatal(err)
	}
	got, want := *en.Counter, *ctr
	got.Objects, want.Objects = nil, nil
	if got != want {
		t.Fatalf("enricher tally %+v, counter %+v", got, want)
	}
	var refs, covered uint64
	for _, n := range en.ObjRefs {
		refs += n
	}
	for i := range col.recs {
		covered += uint64(col.recs[i].More) + 1
	}
	events := ctr.Refs() + ctr.Allocs + ctr.Frees
	if refs != ctr.Refs() || covered != events {
		t.Fatalf("per-object refs sum to %d and %d records cover %d events, counter saw %d refs of %d events",
			refs, len(col.recs), covered, ctr.Refs(), events)
	}
	if uint64(len(col.recs)) >= events {
		t.Fatalf("%d records for %d events: no run folded", len(col.recs), events)
	}
}
