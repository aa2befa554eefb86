package cache

import (
	"reflect"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/object"
)

// driveStream replays a deterministic pseudo-random access stream into sim.
// The generator is a plain xorshift so the same seed always produces the
// same stream.
func driveStream(t testing.TB, s *Sim, n int, seed uint64) {
	t.Helper()
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < n; i++ {
		r := next()
		// A handful of objects striding over a few KB keeps the stream
		// conflict-heavy at the 8 KB default geometry.
		obj := object.ID(r % 7)
		addr := addrspace.Addr((r>>8)%16384) + addrspace.Addr(obj)*8192
		size := int64(1 + (r>>40)%64)
		cat := object.Category(r % uint64(object.NumCategories))
		if r&1 == 0 {
			s.Access(addr, size, cat, obj)
		} else {
			s.Write(addr, size, cat, obj)
		}
		if r%1009 == 0 {
			s.Flush()
		}
	}
}

// TestAttributionDoesNotChangeStats is the differential guarantee the
// -explain-misses flag rests on: with attribution attached, every
// simulator statistic is byte-identical to a run without it, across every
// policy combination. Attribution forces the general touchBlock path, so
// the policy-free geometries also hold the fast path to it.
func TestAttributionDoesNotChangeStats(t *testing.T) {
	configs := []Config{
		{Size: 8 * 1024, BlockSize: 32, Assoc: 1},
		{Size: 8 * 1024, BlockSize: 32, Assoc: 2},
		{Size: 8 * 1024, BlockSize: 32, Assoc: 4},
		{Size: 8 * 1024, BlockSize: 32, Assoc: 8},
		{Size: 8 * 1024, BlockSize: 64, Assoc: 2},
		{Size: 4 * 1024, BlockSize: 64, Assoc: 1, Prefetch: true},
		{Size: 8 * 1024, BlockSize: 32, Assoc: 1, WriteBack: true},
		{Size: 8 * 1024, BlockSize: 32, Assoc: 1, VictimEntries: 4},
		{Size: 8 * 1024, BlockSize: 32, Assoc: 2, Prefetch: true, WriteBack: true, VictimEntries: 2},
	}
	for _, cfg := range configs {
		for _, classify := range []bool{false, true} {
			plain, err := New(cfg, classify)
			if err != nil {
				t.Fatal(err)
			}
			attributed, err := New(cfg, classify)
			if err != nil {
				t.Fatal(err)
			}
			attributed.SetAttribution(NewAttribution(cfg, 64))

			driveStream(t, plain, 20000, 0x9e3779b9)
			driveStream(t, attributed, 20000, 0x9e3779b9)

			if !reflect.DeepEqual(plain.Stats(), attributed.Stats()) {
				t.Errorf("%v classify=%v: stats diverge with attribution on:\noff: %+v\non:  %+v",
					cfg, classify, plain.Stats(), attributed.Stats())
			}
			pr, pm := plain.ObjectStats()
			ar, am := attributed.ObjectStats()
			if !reflect.DeepEqual(pr, ar) || !reflect.DeepEqual(pm, am) {
				t.Errorf("%v classify=%v: per-object stats diverge with attribution on", cfg, classify)
			}
		}
	}
}

// TestAttributionSetTotals checks the per-set counters tie out against the
// aggregate statistics: set misses sum to Stats.Misses and every miss
// landed in the set its block indexes.
func TestAttributionSetTotals(t *testing.T) {
	cfg := Config{Size: 8 * 1024, BlockSize: 32, Assoc: 1}
	s, err := New(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	attr := NewAttribution(cfg, 64)
	s.SetAttribution(attr)
	driveStream(t, s, 30000, 0xabcdef)

	st := attr.Stats()
	if len(st.Sets) != cfg.Sets() {
		t.Fatalf("got %d set entries, want %d", len(st.Sets), cfg.Sets())
	}
	var misses, accesses, evictions uint64
	for _, set := range st.Sets {
		misses += set.Misses
		accesses += set.Accesses
		evictions += set.Evictions
	}
	stats := s.Stats()
	if misses != stats.Misses {
		t.Errorf("per-set misses sum %d, want Stats.Misses %d", misses, stats.Misses)
	}
	if accesses < stats.Accesses {
		t.Errorf("per-set accesses sum %d below access count %d", accesses, stats.Accesses)
	}
	if evictions == 0 {
		t.Error("no evictions recorded on a conflict-heavy stream")
	}
	if st.MaxSetMisses() == 0 {
		t.Error("MaxSetMisses reported 0 with misses recorded")
	}
}

// TestAttributionPairs exercises the conflict-pair path end to end: two
// objects ping-ponging on one direct-mapped set must dominate the sketch.
func TestAttributionPairs(t *testing.T) {
	cfg := Config{Size: 8 * 1024, BlockSize: 32, Assoc: 1}
	s, err := New(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	attr := NewAttribution(cfg, 8)
	s.SetAttribution(attr)

	// Addresses one cache period (8 KB) apart map to the same set.
	const period = 8 * 1024
	for i := 0; i < 1000; i++ {
		s.Access(0, 4, object.Global, 1)
		s.Access(period, 4, object.Global, 2)
	}
	pairs := attr.Stats().Pairs
	if len(pairs) == 0 {
		t.Fatal("no conflict pairs recorded")
	}
	top := pairs[0]
	if !(top.Victim == 1 && top.Evictor == 2) && !(top.Victim == 2 && top.Evictor == 1) {
		t.Fatalf("top pair %+v, want the 1<->2 ping-pong", top)
	}
	if top.Count < 900 {
		t.Errorf("top pair count %d, want ~1000", top.Count)
	}
}

// TestPairSketchBounds checks the space-saving invariants: capacity is
// never exceeded, heavy hitters survive, and the error bound brackets the
// true count.
func TestPairSketchBounds(t *testing.T) {
	sk := newPairSketch(4)
	heavy := pairKey(1, 2)
	for i := 0; i < 100; i++ {
		sk.observe(heavy)
	}
	// A churn of 40 distinct light pairs through 4 slots.
	for i := 0; i < 40; i++ {
		sk.observe(pairKey(object.ID(10+i), object.ID(50+i)))
	}
	if len(sk.entries) > 4 {
		t.Fatalf("sketch holds %d entries, cap 4", len(sk.entries))
	}
	top := sk.top()
	if top[0].Victim != 1 || top[0].Evictor != 2 {
		t.Fatalf("heavy hitter evicted from sketch: top is %+v", top[0])
	}
	if top[0].Count < 100 || top[0].Count-top[0].Err > 100 {
		t.Errorf("heavy hitter count %d err %d does not bracket true count 100", top[0].Count, top[0].Err)
	}
}

// BenchmarkAccessAttributionOff measures the simulator hot path with
// attribution disabled — the configuration the acceptance criterion holds
// to "no measurable regression" versus the pre-attribution simulator.
func BenchmarkAccessAttributionOff(b *testing.B) {
	benchmarkAccess(b, false)
}

// BenchmarkAccessAttributionOn measures the same path with attribution
// enabled, sizing the documented cost of -explain-misses.
func BenchmarkAccessAttributionOn(b *testing.B) {
	benchmarkAccess(b, true)
}

func benchmarkAccess(b *testing.B, attributed bool) {
	cfg := DefaultConfig
	s, err := New(cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	if attributed {
		s.SetAttribution(NewAttribution(cfg, DefaultAttributionPairs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := addrspace.Addr((uint64(i) * 2654435761) % 32768)
		s.Access(addr, 8, object.Global, object.ID(i%5))
	}
}
