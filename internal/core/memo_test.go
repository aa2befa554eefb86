package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallWorkload shrinks a workload's inputs so the memo tests can run
// dozens of profiling passes, under the race detector too.
type smallWorkload struct {
	workload.Workload
	frac float64
}

func (s smallWorkload) Train() workload.Input { return s.Workload.Train().Scaled(s.frac) }
func (s smallWorkload) Test() workload.Input  { return s.Workload.Test().Scaled(s.frac) }

func small(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return smallWorkload{Workload: w, frac: 0.02}
}

// runRendered runs one experiment and renders it the way the service
// and cmd/ccdp -json do.
func runRendered(t *testing.T, e core.Experiment) (*core.Comparison, []byte) {
	t.Helper()
	cmp, err := core.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, []*core.Comparison{cmp}); err != nil {
		t.Fatal(err)
	}
	return cmp, buf.Bytes()
}

// memoCounts reads the memo's hit and miss counters.
func memoCounts(mc *metrics.Collector) (hits, misses uint64) {
	return mc.Get(metrics.ProfileMemoHits), mc.Get(metrics.ProfileMemoMisses)
}

// TestProfileMemoHit checks a repeat experiment reuses the memoized
// profile, returns the bytes a memo-less run returns, and still reports
// its profile stage on every channel: OnStage, OnSpan (labelled memo),
// the ledger and the metrics stage timer.
func TestProfileMemoHit(t *testing.T) {
	w := small(t, "compress")
	memoMC := metrics.New()
	memo := core.NewProfileMemo(memoMC)
	_, direct := runRendered(t, core.Experiment{Workload: w, Options: sim.DefaultOptions()})

	var prev *core.Comparison
	for i, wantLabel := range []string{"", core.SpanLabelMemo} {
		var buf bytes.Buffer
		lw := ledger.New(&buf)
		opts := sim.DefaultOptions()
		opts.Metrics = metrics.New()
		stages, labels := 0, []string{}
		cmp, got := runRendered(t, core.Experiment{
			Workload: w,
			Options:  opts,
			Profiles: memo,
			Ledger:   lw,
			OnStage: func(_ string, s metrics.Stage) {
				if s == metrics.StageProfile {
					stages++
				}
			},
			OnSpan: func(_ string, s metrics.Stage, label string, _ time.Time, _ time.Duration) {
				if s == metrics.StageProfile {
					labels = append(labels, label)
				}
			},
		})
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, direct) {
			t.Fatalf("run %d: memoized bytes differ from a memo-less run", i)
		}
		if stages != 1 || len(labels) != 1 || labels[0] != wantLabel {
			t.Fatalf("run %d: %d profile stage(s), span labels %q; want 1 and [%q]", i, stages, labels, wantLabel)
		}
		if n := opts.Metrics.Snapshot(); stageCount(n, "profile") != 1 {
			t.Fatalf("run %d: metrics timed the profile stage %d times, want 1", i, stageCount(n, "profile"))
		}
		run, err := ledger.Replay(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if spanCount(run, "profile") != 1 {
			t.Fatalf("run %d: ledger holds %d profile spans, want 1", i, spanCount(run, "profile"))
		}
		if prev != nil && cmp.Profile != prev.Profile {
			t.Fatal("hit recomputed the profile instead of sharing the memoized one")
		}
		prev = cmp
	}
	if hits, misses := memoCounts(memoMC); hits != 1 || misses != 1 {
		t.Fatalf("memo counted %d hits, %d misses; want 1 and 1", hits, misses)
	}
}

func stageCount(s metrics.Snapshot, name string) uint64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Count
		}
	}
	return 0
}

func spanCount(run *ledger.Run, stage string) int {
	n := 0
	for _, sp := range run.Spans {
		if sp.Stage == stage {
			n++
		}
	}
	return n
}

// TestProfileMemoKey checks the key covers exactly what the profiling
// pass reads: options that only change its schedule, the evaluated
// inputs or the cache geometry share an entry, while every profiling
// parameter and every part of the profiled source gets its own. In both
// cases the bytes match a memo-less run.
func TestProfileMemoKey(t *testing.T) {
	w := small(t, "compress")
	memoMC := metrics.New()
	memo := core.NewProfileMemo(memoMC)
	base := core.Experiment{Workload: w, Options: sim.DefaultOptions(), Profiles: memo}
	runRendered(t, base)

	type variant struct {
		name string
		edit func(e *core.Experiment)
	}
	hits := []variant{
		{"parallelism", func(e *core.Experiment) { e.Options.Parallelism = 2 }},
		{"stream depth", func(e *core.Experiment) { e.Options.Profile.StreamDepth = 3 }},
		{"adaptive warmup", func(e *core.Experiment) { e.Options.Profile.AdaptiveWarmup = -1 }},
		{"adaptive ratio", func(e *core.Experiment) { e.Options.Profile.AdaptiveMinHitRatio = 0.5 }},
		{"metrics", func(e *core.Experiment) { e.Options.Metrics = metrics.New() }},
		{"trace replay", func(e *core.Experiment) { e.Trace = sim.TraceConfig{Dir: t.TempDir()} }},
		{"cache assoc", func(e *core.Experiment) { e.Options.Cache.Assoc = 2 }},
		{"scaled inputs", func(e *core.Experiment) {
			e.Inputs = []workload.Input{w.Train().Scaled(0.5), w.Test().Scaled(0.5)}
		}},
	}
	misses := []variant{
		{"chunk", func(e *core.Experiment) { e.Options.Profile.ChunkSize = 512 }},
		{"queue", func(e *core.Experiment) { e.Options.Profile.QueueThreshold *= 2 }},
		{"cutoff", func(e *core.Experiment) { e.Options.Profile.PopularityCutoff = 0.9 }},
		{"sampling", func(e *core.Experiment) {
			e.Options.Profile.SampleWindow, e.Options.Profile.SamplePeriod = 64, 256
		}},
		{"name depth", func(e *core.Experiment) { e.Options.NameDepth = 2 }},
		{"train input", func(e *core.Experiment) { e.Workload = smallWorkload{Workload: w, frac: 0.5} }},
		{"workload", func(e *core.Experiment) { e.Workload = small(t, "mgrid") }},
	}
	check := func(v variant, wantHit bool) {
		e := base
		v.edit(&e)
		h0, m0 := memoCounts(memoMC)
		_, got := runRendered(t, e)
		h1, m1 := memoCounts(memoMC)
		if hit := h1 == h0+1 && m1 == m0; hit != wantHit {
			t.Errorf("%s: hit=%v (hits %d->%d, misses %d->%d), want hit=%v", v.name, hit, h0, h1, m0, m1, wantHit)
		}
		e.Profiles = nil
		if _, want := runRendered(t, e); !bytes.Equal(got, want) {
			t.Errorf("%s: memoized bytes differ from a memo-less run", v.name)
		}
	}
	for _, v := range hits {
		check(v, true)
	}
	for _, v := range misses {
		check(v, false)
	}
}

// TestProfileMemoEviction fills the memo past its capacity: it never
// holds more than ProfileMemoCapacity entries, evicts the least recently
// used one, and an evicted key recomputes identical bytes.
func TestProfileMemoEviction(t *testing.T) {
	w := small(t, "compress")
	memoMC := metrics.New()
	memo := core.NewProfileMemo(memoMC)
	keyed := func(i int) core.Experiment {
		opts := sim.DefaultOptions()
		opts.Profile.PopularityCutoff = 0.99 - 0.01*float64(i)
		return core.Experiment{Workload: w, Options: opts, Profiles: memo}
	}
	first := map[int][]byte{}
	for i := 0; i < core.ProfileMemoCapacity; i++ {
		_, first[i] = runRendered(t, keyed(i))
		if n := memo.Len(); n != i+1 {
			t.Fatalf("after %d keys the memo holds %d entries", i+1, n)
		}
	}
	// Touch key 0 so key 1 is now least recently used, then overflow.
	runRendered(t, keyed(0))
	over := core.ProfileMemoCapacity
	runRendered(t, keyed(over))
	if n := memo.Len(); n != core.ProfileMemoCapacity {
		t.Fatalf("memo holds %d entries past capacity %d", n, core.ProfileMemoCapacity)
	}

	expect := func(i int, wantHit bool) {
		t.Helper()
		h0, _ := memoCounts(memoMC)
		_, got := runRendered(t, keyed(i))
		if h1, _ := memoCounts(memoMC); (h1 == h0+1) != wantHit {
			t.Fatalf("key %d: hit=%v, want %v", i, h1 == h0+1, wantHit)
		}
		if !bytes.Equal(got, first[i]) {
			t.Fatalf("key %d: bytes differ from its first run", i)
		}
		if n := memo.Len(); n > core.ProfileMemoCapacity {
			t.Fatalf("memo holds %d entries past capacity %d", n, core.ProfileMemoCapacity)
		}
	}
	expect(0, true)  // recently touched, kept
	expect(1, false) // least recently used, evicted and recomputed
	expect(1, true)
}

// TestProfileMemoConcurrent shares one memo across concurrent experiments
// over several keys (run it under -race): every result matches a
// memo-less run and every lookup is counted once.
func TestProfileMemoConcurrent(t *testing.T) {
	names := []string{"compress", "mgrid", "m88ksim"}
	want := map[string][]byte{}
	for _, n := range names {
		_, want[n] = runRendered(t, core.Experiment{Workload: small(t, n), Options: sim.DefaultOptions()})
	}
	memoMC := metrics.New()
	memo := core.NewProfileMemo(memoMC)
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(names))
	for r := 0; r < rounds; r++ {
		for _, n := range names {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				w, _ := workload.Get(n)
				opts := sim.DefaultOptions()
				opts.Parallelism = 2
				cmp, err := core.RunExperiment(core.Experiment{
					Workload: smallWorkload{Workload: w, frac: 0.02}, Options: opts, Profiles: memo,
				})
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				if err := report.WriteJSON(&buf, []*core.Comparison{cmp}); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), want[n]) {
					errs <- fmt.Errorf("%s: concurrent memoized bytes differ from a memo-less run", n)
				}
			}(n)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := memoCounts(memoMC)
	if hits+misses != rounds*uint64(len(names)) || misses < uint64(len(names)) {
		t.Fatalf("memo counted %d hits + %d misses over %d runs of %d keys", hits, misses, rounds*len(names), len(names))
	}
	if n := memo.Len(); n != len(names) {
		t.Fatalf("memo holds %d entries, want %d", n, len(names))
	}
}
