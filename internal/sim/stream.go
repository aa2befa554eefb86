package sim

import (
	"io"

	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/workload"
)

// EventStream abstracts where a pipeline pass's reference stream comes
// from: a live run of the program model, or replay of a recorded trace
// file. Both deliver byte-for-byte the same event sequence over
// byte-for-byte the same object table (the trace header captures the
// "compiler's" natural-address declarations, specDecls, exactly), so
// every downstream pass — profiling, placement, cache simulation — is
// oblivious to the source. A stream drives its handler exactly once.
type EventStream interface {
	// Objects is the table the stream's events reference. For a live
	// stream it is the freshly materialised spec; for replay it is
	// reconstructed from the trace header before any event flows.
	Objects() *object.Table
	// Drive delivers the full event stream to h, in order.
	Drive(h trace.Handler) error
	// Replayed reports whether the stream decodes a trace file (an
	// I/O-bound producer) rather than running the model live.
	Replayed() bool
	// Close releases the stream's underlying resources. Drive closes a
	// replay stream on completion; Close covers the error paths before
	// that. It is idempotent.
	Close() error
}

// liveStream runs the workload model. The emitter's handler is a mutable
// one-slot tee so the table can be built before the consumer exists.
type liveStream struct {
	w    workload.Workload
	in   workload.Input
	tee  *trace.Tee
	objs *object.Table
	prog *workload.Prog
	em   *trace.Emitter
}

// Live materialises w's spec for a run on the given input. The returned
// stream's events flow once Drive is called.
func Live(w workload.Workload, in workload.Input, opts Options) EventStream {
	tee := make(trace.Tee, 0, 1)
	ls := &liveStream{w: w, in: in, tee: &tee}
	ls.objs, ls.prog, ls.em = buildRun(w, in, &tee, opts)
	return ls
}

func (ls *liveStream) Objects() *object.Table { return ls.objs }
func (ls *liveStream) Replayed() bool         { return false }
func (ls *liveStream) Close() error           { return nil }

func (ls *liveStream) Drive(h trace.Handler) error {
	*ls.tee = append(*ls.tee, h)
	ls.w.Run(ls.in, ls.prog)
	ls.em.Flush()
	return nil
}

// ReplayBufferSize is the decode buffer of a trace replay: deep enough
// that file reads happen in large, infrequent slabs while the decoder and
// the downstream handlers (the sharded profiler's fan-out in particular)
// stay busy in between.
const ReplayBufferSize = 1 << 20

// ReplayStreamDepth is the sharded profiler's per-worker batch buffer when
// the producer is trace replay: the decoder stalls on I/O in bursts, so a
// deeper pipeline (versus the live default of 8) keeps the shard workers
// fed across those bursts. Schedule-only; results are unaffected.
const ReplayStreamDepth = 64

// replayStream decodes a recorded trace file.
type replayStream struct {
	tr     *trace.Reader
	mc     *metrics.Collector
	closer io.Closer
}

// OpenReplay parses a trace header from r through a deep read buffer and
// returns the replay as an EventStream. If r is an io.Closer (a file), the
// stream owns it and closes it when the replay completes.
func OpenReplay(r io.Reader, opts Options) (EventStream, error) {
	tr, err := trace.NewReaderSize(r, ReplayBufferSize)
	if err != nil {
		return nil, err
	}
	tr.SetMetrics(opts.Metrics)
	rs := &replayStream{tr: tr, mc: opts.Metrics}
	if c, ok := r.(io.Closer); ok {
		rs.closer = c
	}
	return rs, nil
}

func (rs *replayStream) Objects() *object.Table { return rs.tr.Objects() }
func (rs *replayStream) Replayed() bool         { return true }

func (rs *replayStream) Close() error {
	if rs.closer == nil {
		return nil
	}
	c := rs.closer
	rs.closer = nil
	return c.Close()
}

// Drive replays the recorded events into h. The StageReplay span covers
// decode plus in-line handling — the wall-clock cost of driving the pass
// from a file instead of the live model.
func (rs *replayStream) Drive(h trace.Handler) error {
	span := rs.mc.Start(metrics.StageReplay)
	err := rs.tr.Replay(h)
	span.Stop()
	if cerr := rs.Close(); err == nil {
		err = cerr
	}
	return err
}
