package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ladderTrace is one program's pair of inputs the ladder times: train
// feeds the profiling rungs, test every other rung.
type ladderTrace struct {
	w         workload.Workload
	train     workload.Input
	test      workload.Input
	trainData []byte // uncompressed recorded traces
	testData  []byte
}

// geometry is one cache the eval rung simulates.
type geometry struct {
	name string
	cfg  cache.Config
}

// ladderGeometries are the paper's 8 KB, 32-byte-line cache at three
// associativities: the direct-mapped kernel and two set-associative ones.
var ladderGeometries = []geometry{
	{"dm", cache.Config{Size: 8192, BlockSize: 32, Assoc: 1}},
	{"2w", cache.Config{Size: 8192, BlockSize: 32, Assoc: 2}},
	{"8w", cache.Config{Size: 8192, BlockSize: 32, Assoc: 8}},
}

// nopHandler consumes events and does nothing: driving a stream into it
// times the stream's producer alone.
type nopHandler struct{}

func (nopHandler) HandleEvent(trace.Event)   {}
func (nopHandler) HandleBatch([]trace.Event) {}

// streamEvents is a counter's total of references, allocations and frees.
func streamEvents(c *trace.Counter) uint64 {
	if c == nil {
		return 0
	}
	return c.Refs() + c.Allocs + c.Frees
}

// ladder times each layer's public entry point, single-threaded unless a
// rung says otherwise, over the given traces, and sets the per-layer
// metrics on out. Per-event figures divide summed time by summed events.
// It returns the replay, emit and decode costs per event, which the
// traced passes use to split stream production out of their spans.
func ladder(out *outcome, work string, traces []*ladderTrace) (streamCost, error) {
	opts := sim.DefaultOptions()
	var (
		events, trainEvents            uint64
		recordT, decodeT, trainDecodeT time.Duration
		replayT, emitT, prof1T, prof2T time.Duration
		placeT, buildT                 time.Duration
		rawBytes                       uint64
		builds                         int
		evalT                          = map[string]time.Duration{}
		evalEvents                     uint64
		accesses                       uint64
		allocs                         uint64
		passes                         uint64
		misses                         = map[string]uint64{}
		storeMC, profMC, placeMC       = metrics.New(), metrics.New(), metrics.New()
	)
	storeDir := filepath.Join(work, "ladder-store")
	for _, lt := range traces {
		w := lt.w
		// trace record: the live model written to io.Discard.
		t0 := time.Now()
		if err := sim.RecordTrace(w, lt.test, io.Discard, opts); err != nil {
			return streamCost{}, err
		}
		recordT += time.Since(t0)
		var tb, trb bytes.Buffer
		if err := sim.RecordTrace(w, lt.test, &tb, opts); err != nil {
			return streamCost{}, err
		}
		if err := sim.RecordTrace(w, lt.train, &trb, opts); err != nil {
			return streamCost{}, err
		}
		lt.testData, lt.trainData = tb.Bytes(), trb.Bytes()
		rawBytes += uint64(len(lt.testData))

		n, err := countEvents(lt.testData)
		if err != nil {
			return streamCost{}, err
		}
		nTrain, err := countEvents(lt.trainData)
		if err != nil {
			return streamCost{}, err
		}
		events += n
		trainEvents += nTrain

		// trace decode: replay of in-memory uncompressed bytes.
		d, err := timeDrive(func() (sim.EventStream, error) {
			return sim.OpenReplay(bytes.NewReader(lt.testData), opts)
		})
		if err != nil {
			return streamCost{}, err
		}
		decodeT += d
		dTrain, err := timeDrive(func() (sim.EventStream, error) {
			return sim.OpenReplay(bytes.NewReader(lt.trainData), opts)
		})
		if err != nil {
			return streamCost{}, err
		}
		trainDecodeT += dTrain

		// store: open + replay of a recorded, compressed entry.
		ts := sim.NewTraceStore(sim.TraceConfig{Dir: storeDir}, w, storeMC)
		src, err := ts.Open(lt.test, opts)
		if err != nil {
			return streamCost{}, err
		}
		src.Close()
		ro := sim.NewTraceStore(sim.TraceConfig{Dir: storeDir, RequireRecorded: true}, w, nil)
		d, err = timeDrive(func() (sim.EventStream, error) { return ro.Open(lt.test, opts) })
		if err != nil {
			return streamCost{}, err
		}
		replayT += d

		// workload emit: the live model into a no-op consumer.
		d, err = timeDrive(func() (sim.EventStream, error) { return sim.Live(w, lt.test, opts), nil })
		if err != nil {
			return streamCost{}, err
		}
		emitT += d

		// profile: the TRG build at one and two shards, decode subtracted.
		po := opts
		po.Parallelism = 1
		po.Metrics = profMC
		t0 = time.Now()
		src, err = sim.OpenReplay(bytes.NewReader(lt.trainData), po)
		if err != nil {
			return streamCost{}, err
		}
		pr, err := sim.ProfileFrom(src, po)
		if err != nil {
			return streamCost{}, err
		}
		prof1T += time.Since(t0)
		po.Parallelism, po.Metrics = 2, nil
		t0 = time.Now()
		src, err = sim.OpenReplay(bytes.NewReader(lt.trainData), po)
		if err != nil {
			return streamCost{}, err
		}
		if _, err := sim.ProfileFrom(src, po); err != nil {
			return streamCost{}, err
		}
		prof2T += time.Since(t0)

		// placement.
		plo := opts
		plo.Metrics = placeMC
		t0 = time.Now()
		pm, err := sim.Place(w, pr, plo)
		if err != nil {
			return streamCost{}, err
		}
		placeT += time.Since(t0)

		// sim: one pass per layout and geometry, decode subtracted.
		for _, g := range ladderGeometries {
			eo := opts
			eo.Cache = g.cfg
			for _, kind := range []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				t0 := time.Now()
				src, err := sim.OpenReplay(bytes.NewReader(lt.testData), eo)
				if err != nil {
					return streamCost{}, err
				}
				res, err := sim.EvalFrom(src, w.Name(), w.HeapPlacement(), lt.test, kind, pr, pm, eo, 0)
				el := time.Since(t0)
				runtime.ReadMemStats(&after)
				if err != nil {
					return streamCost{}, err
				}
				evalT[g.name] += el
				allocs += after.Mallocs - before.Mallocs
				passes++
				misses[string(kind)+"."+g.name] += res.Stats.Misses
				if g.name == "dm" && kind == sim.LayoutNatural {
					accesses += res.Stats.Accesses
					evalEvents += streamEvents(res.Counter)
				}
			}
		}

		// layout build: the CCDP layout over a fresh object table.
		src, err = sim.OpenReplay(bytes.NewReader(lt.testData), opts)
		if err != nil {
			return streamCost{}, err
		}
		table := src.Objects()
		src.Close()
		const reps = 5
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if _, _, err := sim.BuildLayout(table, sim.LayoutCCDP, w.HeapPlacement(), pr, pm, opts); err != nil {
				return streamCost{}, err
			}
		}
		buildT += time.Since(t0)
		builds += reps
		lt.testData, lt.trainData = nil, nil
	}
	if events == 0 || trainEvents == 0 {
		return streamCost{}, fmt.Errorf("ladder traces hold no events")
	}
	out.check(evalEvents == events, "ladder: eval passes saw %d events, the traces hold %d", evalEvents, events)
	perEv := func(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }
	cost := streamCost{
		trainEvents: trainEvents,
		decode:      perEv(decodeT, events),
		replay:      perEv(replayT, events),
		emit:        perEv(emitT, events),
	}
	out.set("ladder.events", float64(events), "count")
	out.set("trace.record_ns_per_event", perEv(recordT, events), "ns/event")
	out.set("trace.decode_ns_per_event", cost.decode, "ns/event")
	out.set("trace.bytes_per_event", float64(rawBytes)/float64(events), "B/event")
	out.set("store.replay_ns_per_event", cost.replay, "ns/event")
	out.set("store.inflate_ns_per_event", cost.replay-cost.decode, "ns/event")
	storeBytes := storeMC.Snapshot()
	written, _ := storeBytes.Counter(metrics.StoreBytesWritten.String())
	out.set("store.bytes_per_event", float64(written)/float64(events), "B/event")
	out.set("workload.emit_ns_per_event", cost.emit, "ns/event")
	out.set("profile.self_ns_per_event.shards1", perEv(prof1T-trainDecodeT, trainEvents), "ns/event")
	out.set("profile.self_ns_per_event.shards2", perEv(prof2T-trainDecodeT, trainEvents), "ns/event")
	ps := profMC.Snapshot()
	edges, _ := ps.Counter(metrics.TRGEdges.String())
	evictions, _ := ps.Counter(metrics.QueueEvictions.String())
	out.set("trg.edges", float64(edges), "count")
	out.set("profile.queue_evictions", float64(evictions), "count")
	out.counts["ladder.events"] = events
	out.counts["ladder.train_events"] = trainEvents
	out.counts["trg.edges"] = edges
	out.counts["profile.queue_evictions"] = evictions
	out.set("placement.compute_ms", ms(placeT), "ms")
	pl := placeMC.Snapshot()
	for _, st := range []metrics.Stage{
		metrics.StagePhaseHeapBins, metrics.StagePhaseStackConstants, metrics.StagePhaseCompounds,
		metrics.StagePhaseSelectEdges, metrics.StagePhaseMerge, metrics.StagePhaseGlobalOrder,
		metrics.StagePhaseHeapPlans,
	} {
		s, _ := pl.Stage(st.String())
		// "place.phase1_heap_bins" -> "placement.phase1_heap_bins_ms"
		out.set("placement"+st.String()[len("place"):]+"_ms", float64(s.TotalNanos)/1e6, "ms")
	}
	for _, g := range ladderGeometries {
		out.set("sim.eval_self_ns_per_event."+g.name, perEv(evalT[g.name]-2*decodeT, 2*events), "ns/event")
	}
	out.set("sim.build_layout_us", float64(buildT.Microseconds())/float64(builds), "us")
	out.set("sim.eval_allocs_per_pass", float64(allocs)/float64(passes), "count")
	out.set("cache.accesses", float64(accesses), "count")
	out.counts["cache.accesses"] = accesses
	for k, v := range misses {
		out.set("cache.misses."+k, float64(v), "count")
		out.counts["cache.misses."+k] = v
	}
	return cost, nil
}

// streamCost is what producing one event costs on each source, and how
// many events the ladder's train traces hold.
type streamCost struct {
	trainEvents          uint64
	decode, replay, emit float64 // ns/event
}

// countEvents counts a recorded trace's events.
func countEvents(data []byte) (uint64, error) {
	src, err := sim.OpenReplay(bytes.NewReader(data), sim.DefaultOptions())
	if err != nil {
		return 0, err
	}
	c := trace.NewCounter(src.Objects())
	if err := src.Drive(c); err != nil {
		return 0, err
	}
	return streamEvents(c), nil
}

// timeDrive times opening a stream and driving it into a no-op consumer.
func timeDrive(open func() (sim.EventStream, error)) (time.Duration, error) {
	t0 := time.Now()
	src, err := open()
	if err != nil {
		return 0, err
	}
	if err := src.Drive(nopHandler{}); err != nil {
		src.Close()
		return 0, err
	}
	return time.Since(t0), nil
}

// obsOverhead times one experiment with and without the metrics
// collector, ledger and telemetry recorder attached, alternating three
// times, and reports the median slowdown in percent.
func obsOverhead(w workload.Workload, scale float64) (float64, error) {
	inputs := benchsuite.ScaledInputs(w, scale)
	var bare, observed []float64
	for i := 0; i < 3; i++ {
		opts := sim.DefaultOptions()
		t0 := time.Now()
		if _, err := core.RunExperiment(core.Experiment{Workload: w, Options: opts, Inputs: inputs}); err != nil {
			return 0, err
		}
		bare = append(bare, time.Since(t0).Seconds())

		mc := metrics.New()
		opts.Metrics = mc
		rec := telemetry.NewRecorder(time.Now(), mc, nil)
		t0 = time.Now()
		_, err := core.RunExperiment(core.Experiment{
			Workload: w, Options: opts, Inputs: inputs,
			Ledger:  ledger.New(io.Discard),
			OnStage: rec.StageBegin,
			OnSpan:  rec.SpanDone,
		})
		if err != nil {
			return 0, err
		}
		rec.Finish("done", "")
		observed = append(observed, time.Since(t0).Seconds())
	}
	return 100 * (median(observed)/median(bare) - 1), nil
}
