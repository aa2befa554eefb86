package sim

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/workload"
)

// TraceConfig selects trace-store-driven execution: with a directory set,
// the pipeline records each (workload, input) event stream into a shared
// content-addressed store on first contact and drives every subsequent
// pass from replay — the paper's record-once / simulate-many split,
// generalized to an artifact cache many processes (and CI runs) share.
type TraceConfig struct {
	// Dir is the store directory. Empty disables the trace path entirely
	// (every pass runs the live model, exactly as before).
	Dir string
	// RequireRecorded refuses to fall back to recording when a trace is
	// missing: replay-only mode, for runs that must not touch the model.
	RequireRecorded bool
	// MaxBytes caps the store's on-disk footprint; recording and the
	// maintenance pass evict least-recently-used entries beyond it
	// (0 = uncapped).
	MaxBytes int64
}

// Enabled reports whether the trace path is configured.
func (tc TraceConfig) Enabled() bool { return tc.Dir != "" }

// storeConfig maps the trace configuration onto the artifact store's.
func (tc TraceConfig) storeConfig(mc *metrics.Collector) store.Config {
	return store.Config{Dir: tc.Dir, MaxBytes: tc.MaxBytes, Metrics: mc}
}

// TraceStore hands out replay streams for one workload's traces, backed
// by the shared content-addressed store: each input's stream is recorded
// at most once per store directory — across goroutines via the store's
// in-directory claim protocol, and across processes the same way — and
// every later Open replays the stored entry. Safe for concurrent use
// by an experiment's parallel per-input evaluation passes.
type TraceStore struct {
	cfg TraceConfig
	w   workload.Workload
	st  *store.Store
}

// NewTraceStore returns a store view for w's traces under cfg.Dir. The
// collector receives the store's hit/miss/wait/evict/byte accounting
// (nil disables it, as everywhere else in the pipeline).
func NewTraceStore(cfg TraceConfig, w workload.Workload, mc *metrics.Collector) *TraceStore {
	return &TraceStore{cfg: cfg, w: w, st: store.New(cfg.storeConfig(mc))}
}

// Key content-addresses an input's trace: every parameter the recorded
// byte stream depends on — workload identity, input label/seed/bursts,
// the XOR naming depth (which changes recorded heap names), and the
// bumpable generator version — is hashed in, so distinct configurations
// can never collide on a stale entry, and a generator bump invalidates
// the whole cache at once.
func (ts *TraceStore) Key(in workload.Input, opts Options) store.Key {
	return store.KeyOf(
		ts.w.Name()+"_"+in.Label,
		"gen", strconv.Itoa(TraceGenVersion),
		"workload", ts.w.Name(),
		"input", in.Label,
		"seed", strconv.FormatUint(in.Seed, 16),
		"bursts", strconv.Itoa(in.Bursts),
		"namedepth", strconv.Itoa(opts.NameDepth),
	)
}

// Open returns a replay stream for the input's trace, recording it first
// if no process has yet. Recording runs the live model once with a nil
// metrics collector — the record pass is a pure producer; consumers meter
// the replays — and publishes atomically, so a crash can never leave a
// truncated trace behind.
func (ts *TraceStore) Open(in workload.Input, opts Options) (EventStream, error) {
	k := ts.Key(in, opts)
	var (
		rc  io.ReadCloser
		err error
	)
	if ts.cfg.RequireRecorded {
		var ok bool
		rc, ok, err = ts.st.Get(k)
		if err == nil && !ok {
			return nil, fmt.Errorf("sim: trace %s not recorded (replay-only mode)", k)
		}
	} else {
		rc, err = ts.st.GetOrFill(k, func(w io.Writer) error {
			recOpts := opts
			recOpts.Metrics = nil
			return RecordTrace(ts.w, in, w, recOpts)
		})
	}
	if err != nil {
		return nil, err
	}
	src, err := OpenReplay(rc, opts)
	if err != nil {
		rc.Close()
		return nil, err
	}
	return src, nil
}

// Maintain runs the underlying store's housekeeping: pack small entries
// into bundles, enforce the size cap, sweep crash debris.
func (ts *TraceStore) Maintain() error { return ts.st.Maintain() }

// MaintainTraceDir runs store maintenance for a trace configuration —
// the hook for CLIs, which hold a TraceConfig rather than the per-
// workload TraceStore instances the pipeline creates internally.
func MaintainTraceDir(cfg TraceConfig, mc *metrics.Collector) error {
	if !cfg.Enabled() {
		return nil
	}
	return store.New(cfg.storeConfig(mc)).Maintain()
}
