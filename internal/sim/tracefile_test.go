package sim

import (
	"bytes"
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/workload"
)

func recordSmallTrace(t *testing.T, name string, frac float64) (*bytes.Buffer, workload.Workload, workload.Input) {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	in := w.Train()
	in.Bursts = int(float64(in.Bursts) * frac)
	var buf bytes.Buffer
	if err := RecordTrace(w, in, &buf, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return &buf, w, in
}

// evalTrace is one independent pass of one layout over a recorded trace.
func evalTrace(raw []byte, kind LayoutKind, pr *ProfileResult, pm *placement.Map, heapPlace bool, opts Options) (*EvalResult, error) {
	src, err := OpenReplay(bytes.NewReader(raw), opts)
	if err != nil {
		return nil, err
	}
	return EvalFrom(src, "", heapPlace, workload.Input{}, kind, pr, pm, opts, 0)
}

func TestRecordedTraceReplaysIdenticalCounts(t *testing.T) {
	buf, w, in := recordSmallTrace(t, "espresso", 0.05)
	live := countRefs(t, Live(w, in, DefaultOptions()))

	tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counter := trace.NewCounter(tr.Objects())
	if err := tr.Replay(counter); err != nil {
		t.Fatal(err)
	}
	if counter.Refs() != live {
		t.Fatalf("replayed %d refs, live run %d", counter.Refs(), live)
	}
}

func TestProfileFromTraceMatchesLiveProfile(t *testing.T) {
	buf, w, in := recordSmallTrace(t, "compress", 0.05)
	opts := DefaultOptions()

	livePr, err := ProfilePass(w, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	tracePr, err := ProfileFromTrace(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if tracePr.Profile.TotalRefs != livePr.Profile.TotalRefs {
		t.Fatalf("refs %d vs %d", tracePr.Profile.TotalRefs, livePr.Profile.TotalRefs)
	}
	if tracePr.Profile.Graph.TotalWeight() != livePr.Profile.Graph.TotalWeight() {
		t.Fatalf("TRG weight %d vs %d",
			tracePr.Profile.Graph.TotalWeight(), livePr.Profile.Graph.TotalWeight())
	}
	if tracePr.Profile.Graph.NumEdges() != livePr.Profile.Graph.NumEdges() {
		t.Fatalf("TRG edges differ")
	}
}

func TestEvalFromTraceMatchesLiveEval(t *testing.T) {
	buf, w, in := recordSmallTrace(t, "m88ksim", 0.05)
	opts := DefaultOptions()

	live, err := evalLive(w, in, LayoutNatural, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := evalTrace(buf.Bytes(), LayoutNatural, nil, nil, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	if live.Stats.Misses != replayed.Stats.Misses || live.Stats.Accesses != replayed.Stats.Accesses {
		t.Fatalf("replayed %d/%d, live %d/%d",
			replayed.Stats.Misses, replayed.Stats.Accesses,
			live.Stats.Misses, live.Stats.Accesses)
	}
}

func TestFullPipelineFromTrace(t *testing.T) {
	// Record once, then do everything from the file: profile, place,
	// evaluate both layouts — the paper's offline toolchain shape.
	buf, w, in := recordSmallTrace(t, "compress", 0.1)
	opts := DefaultOptions()
	raw := buf.Bytes()

	pr, err := ProfileFromTrace(bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := evalTrace(raw, LayoutNatural, nil, nil, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	ccdp, err := evalTrace(raw, LayoutCCDP, pr, pm, w.HeapPlacement(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ccdp.MissRate() >= nat.MissRate() {
		t.Fatalf("trace-driven CCDP %.2f%% did not beat natural %.2f%%",
			ccdp.MissRate(), nat.MissRate())
	}

	// And it must agree exactly with the live pipeline.
	liveCCDP, err := evalLive(w, in, LayoutCCDP, pr, pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if liveCCDP.Stats.Misses != ccdp.Stats.Misses {
		t.Fatalf("trace CCDP %d misses, live %d", ccdp.Stats.Misses, liveCCDP.Stats.Misses)
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := trace.NewReader(bytes.NewReader([]byte("garbage here"))); err == nil {
		t.Fatal("garbage trace accepted")
	}
	if _, err := trace.NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestTraceTruncationDetected(t *testing.T) {
	buf, _, _ := recordSmallTrace(t, "mgrid", 0.02)
	raw := buf.Bytes()
	tr, err := trace.NewReader(bytes.NewReader(raw[:len(raw)-10]))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(trace.HandlerFunc(func(trace.Event) {})); err == nil {
		t.Fatal("truncated trace replayed without error")
	}
}

// TestBatchRecordMatchesPerEvent holds the trace writer's batch encoder
// to the per-event one: for every workload, recording through
// Writer.HandleBatch and through HandleEvent alone yields identical bytes.
func TestBatchRecordMatchesPerEvent(t *testing.T) {
	opts := DefaultOptions()
	for _, w := range workload.All() {
		in := w.Train()
		in.Bursts = max(1, int(float64(in.Bursts)*0.05))
		var batched bytes.Buffer
		if err := RecordTrace(w, in, &batched, opts); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		// The same recording with the writer hidden behind a plain
		// Handler, so the tee unrolls every batch into HandleEvent.
		spec := w.Spec()
		gdecls, cdecls := specDecls(spec)
		hdr := trace.FileHeader{StackSize: spec.StackSize, Globals: gdecls, Constants: cdecls}
		tee := make(trace.Tee, 0, 1)
		table, prog, em := buildRun(w, in, &tee, opts)
		var single bytes.Buffer
		tw, err := trace.NewWriter(&single, hdr, table)
		if err != nil {
			t.Fatal(err)
		}
		tee = append(tee, trace.HandlerFunc(tw.HandleEvent))
		w.Run(in, prog)
		em.Flush()
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batched.Bytes(), single.Bytes()) {
			t.Errorf("%s: batched recording (%d B) differs from per-event recording (%d B)",
				w.Name(), batched.Len(), single.Len())
		}
	}
}
