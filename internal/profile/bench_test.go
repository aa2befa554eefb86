package profile

import (
	"fmt"
	"testing"

	"repro/internal/object"
	"repro/internal/trace"
)

// benchRecs builds a steady-state record batch over n small globals with
// enough alternation that most touches walk the recency queue.
func benchRecs(tbl *object.Table, n, events int) []trace.Rec {
	ids := make([]object.ID, n)
	for i := range ids {
		ids[i] = tbl.AddGlobal(fmt.Sprintf("g%d", i), 256)
	}
	en := trace.NewEnricher(tbl, nil)
	recs := make([]trace.Rec, 0, events)
	for i := 0; i < events; i++ {
		recs = en.Append(recs, trace.Event{Kind: trace.Load, Obj: ids[(i*7+3)%n], Off: 0, Size: 8})
	}
	return recs
}

// BenchmarkHandleRecs pins the sequential touch path: steady state
// allocates nothing (b.ReportAllocs makes regressions visible).
func BenchmarkHandleRecs(b *testing.B) {
	tbl := object.NewTable(256)
	p, err := New(smallConfig(), tbl)
	if err != nil {
		b.Fatal(err)
	}
	recs := benchRecs(tbl, 24, 1024)
	p.HandleRecs(recs) // warm: bind nodes, materialize edges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.HandleRecs(recs)
	}
	b.SetBytes(int64(len(recs)))
}

// BenchmarkSharded compares the parallel profiler across shard counts on
// an alternation-heavy stream (the queue-scan-bound worst case the
// sharding targets). shards=1 approximates the sequential profiler plus
// dispatch overhead.
func BenchmarkSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tbl := object.NewTable(256)
				cfg := smallConfig()
				s, err := NewSharded(cfg, tbl, shards, 8192)
				if err != nil {
					b.Fatal(err)
				}
				// 96 globals at 256B overflow the 16KB threshold, so the
				// queue sits at full length and scans dominate.
				recs := benchRecs(tbl, 96, 1024)
				b.StartTimer()
				for batch := 0; batch < 64; batch++ {
					s.HandleRecs(recs)
				}
				s.Finish()
			}
		})
	}
}
