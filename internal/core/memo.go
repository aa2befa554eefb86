package core

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ProfileMemoCapacity bounds a ProfileMemo. One entry (Name profile, TRG,
// reference counter and object table of a full-size train input) holds
// 0.1-3 MiB of heap, about 1 MiB on average over the nine programs.
const ProfileMemoCapacity = 16

// SpanLabelMemo labels the profile span of an experiment whose profile
// was served from its ProfileMemo rather than computed.
const SpanLabelMemo = "memo"

// ProfileMemo is a bounded, least-recently-used memo of profiling passes,
// safe for concurrent use by many experiments. A profile is a
// deterministic function of the train input's event stream and the
// profiling configuration, and is read-only once built, so one
// *sim.ProfileResult can serve every later experiment with the same key.
//
// Concurrent misses on one key each compute the profile (there is no
// single-flight); the results are identical and the last one stored wins.
// Every method is safe on a nil receiver, which memoizes nothing.
type ProfileMemo struct {
	mc *metrics.Collector

	mu      sync.Mutex
	entries []memoEntry // most recently used first
}

type memoEntry struct {
	key profileKey
	pr  *sim.ProfileResult
}

// profileKey is everything a profiling pass reads. The source half is the
// trace store's key material (workload, train input, XOR naming depth);
// the profile half is the profiling configuration with its runtime-only
// fields zeroed. Parallelism, stream depth, the adaptive shard heuristic
// and live-versus-replay change only the schedule, never the profile.
type profileKey struct {
	workload  string
	input     workload.Input
	nameDepth int
	profile   profile.Config
}

// NewProfileMemo returns an empty memo. mc, when non-nil, counts lookups
// as metrics.ProfileMemoHits and metrics.ProfileMemoMisses.
func NewProfileMemo(mc *metrics.Collector) *ProfileMemo {
	return &ProfileMemo{mc: mc}
}

// profileKeyOf is the memo key of w's train-input profile under opts.
func profileKeyOf(w workload.Workload, opts sim.Options) profileKey {
	cfg := opts.Profile
	cfg.StreamDepth = 0
	cfg.AdaptiveWarmup = 0
	cfg.AdaptiveMinHitRatio = 0
	cfg.Metrics = nil
	return profileKey{
		workload:  w.Name(),
		input:     w.Train(),
		nameDepth: opts.NameDepth,
		profile:   cfg,
	}
}

// Len returns the number of memoized profiles.
func (m *ProfileMemo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// get returns the memoized profile for k, marking it most recently used,
// or nil on a miss.
func (m *ProfileMemo) get(k profileKey) *sim.ProfileResult {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, e := range m.entries {
		if e.key == k {
			copy(m.entries[1:i+1], m.entries[:i])
			m.entries[0] = e
			m.mc.Add(metrics.ProfileMemoHits, 1)
			return e.pr
		}
	}
	m.mc.Add(metrics.ProfileMemoMisses, 1)
	return nil
}

// put stores pr under k as the most recently used entry, evicting the
// least recently used one beyond ProfileMemoCapacity.
func (m *ProfileMemo) put(k profileKey, pr *sim.ProfileResult) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := []memoEntry{{key: k, pr: pr}}
	for _, e := range m.entries {
		if e.key != k && len(kept) < ProfileMemoCapacity {
			kept = append(kept, e)
		}
	}
	m.entries = kept
}
