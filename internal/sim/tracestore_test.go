package sim

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestTraceKeyDistinct checks that every parameter the recorded byte
// stream depends on reaches the content hash: vary one, the key moves.
func TestTraceKeyDistinct(t *testing.T) {
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	cfg := TraceConfig{Dir: t.TempDir()}
	ts := NewTraceStore(cfg, w, nil)
	opts := DefaultOptions()
	in := w.Train()
	base := ts.Key(in, opts)

	seen := map[string]string{base.Hash: "base"}
	check := func(name string, in workload.Input, opts Options, ts *TraceStore) {
		k := ts.Key(in, opts)
		if prev, dup := seen[k.Hash]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k.Hash] = name
	}
	seed := in
	seed.Seed++
	check("seed", seed, opts, ts)
	bursts := in
	bursts.Bursts++
	check("bursts", bursts, opts, ts)
	label := in
	label.Label += "x"
	check("label", label, opts, ts)
	depth := opts
	depth.NameDepth++
	check("namedepth", in, depth, ts)
	check("workload", in, opts, NewTraceStore(cfg, w2, nil))

	if got := NewTraceStore(cfg, w, nil).Key(in, opts); got != base {
		t.Fatalf("same provenance produced different keys: %s vs %s", got, base)
	}
	if !strings.HasPrefix(base.Tag, "compress_") {
		t.Fatalf("key tag %q lost its workload/input readability", base.Tag)
	}
}

// TestTraceStoreOpenRoundTrip drives Open twice: the first records (a
// store miss), the second replays (a hit), and both streams must report
// replayed-vs-live consistently with the rest of the pipeline.
func TestTraceStoreOpenRoundTrip(t *testing.T) {
	w, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	in := w.Train()
	in.Bursts = int(float64(in.Bursts) * 0.05)
	opts := DefaultOptions()
	mc := metrics.New()
	ts := NewTraceStore(TraceConfig{Dir: t.TempDir()}, w, mc)

	live := countRefs(t, Live(w, in, opts))
	for _, pass := range []string{"record", "replay"} {
		src, err := ts.Open(in, opts)
		if err != nil {
			t.Fatalf("%s: Open: %v", pass, err)
		}
		if !src.Replayed() {
			t.Fatalf("%s: stream not marked replayed", pass)
		}
		if refs := countRefs(t, src); refs != live {
			t.Fatalf("%s: replayed %d refs, live run %d", pass, refs, live)
		}
	}
	if mc.Get(metrics.StoreMisses) != 1 {
		t.Fatalf("misses=%d, want 1 (second Open must hit)", mc.Get(metrics.StoreMisses))
	}
	if mc.Get(metrics.StoreHits) != 1 {
		t.Fatalf("hits=%d, want 1", mc.Get(metrics.StoreHits))
	}
}

// TestTraceStoreRequireRecorded checks replay-only mode refuses to fall
// back to the live model on a cold store.
func TestTraceStoreRequireRecorded(t *testing.T) {
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTraceStore(TraceConfig{Dir: t.TempDir(), RequireRecorded: true}, w, nil)
	if _, err := ts.Open(w.Train(), DefaultOptions()); err == nil {
		t.Fatal("replay-only Open succeeded on an empty store")
	} else if !strings.Contains(err.Error(), "not recorded") {
		t.Fatalf("unhelpful replay-only error: %v", err)
	}
}
