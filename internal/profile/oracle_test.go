package profile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/trg"
)

// oracleLine is the line and chunk size of the TRG oracle: with the two
// equal, a chunk is a cache line.
const oracleLine = 64

// pairStream is a seeded load/store stream over n line-aligned globals of
// 1 to maxLines lines each, drawn uniformly or by a Zipf law. References
// come in runs of 1 to 40 adjacent accesses of 4, 8 or 16 bytes (which
// the enricher folds), with some accesses straddling two lines. It
// returns the table, the events, and each object's first line.
func pairStream(seed int64, n, maxLines, events int, zipf bool) (*object.Table, []trace.Event, []int) {
	r := rand.New(rand.NewSource(seed))
	tbl := object.NewTable(1024)
	var ids []object.ID
	var first []int
	lines := 0
	for i := 0; i < n; i++ {
		size := int64(1+r.Intn(maxLines)) * oracleLine
		ids = append(ids, tbl.AddGlobal(fmt.Sprintf("g%d", i), size))
		for int(ids[i]) >= len(first) {
			first = append(first, 0)
		}
		first[ids[i]] = lines
		lines += int(size / oracleLine)
	}
	pick := func() object.ID { return ids[r.Intn(n)] }
	if zipf {
		z := rand.NewZipf(r, 1.2, 1, uint64(n-1))
		pick = func() object.ID { return ids[z.Uint64()] }
	}
	var evs []trace.Event
	for len(evs) < events {
		id := pick()
		size := tbl.Get(id).Size
		w := []int64{4, 8, 16}[r.Intn(3)]
		off := r.Int63n(size-w+1) &^ 3
		kind := trace.Load
		if r.Intn(4) == 0 {
			kind = trace.Store
		}
		for k := 1 + r.Intn(40); k > 0 && off+w <= size; k, off = k-1, off+w {
			evs = append(evs, trace.Event{Kind: kind, Obj: id, Off: off, Size: w})
		}
	}
	return tbl, evs, first
}

// conflictMisses counts the misses of a direct-mapped cache of sets lines
// over evs, with chunk c of object obj on line lineOf(obj, c). Each
// reference touches its lines one Access at a time; cache.Sim counts
// misses per block, so this equals one Access over a contiguous span.
func conflictMisses(t *testing.T, evs []trace.Event, sets int, lineOf func(object.ID, int64) int) uint64 {
	t.Helper()
	cs, err := cache.New(cache.Config{Size: int64(sets) * oracleLine, BlockSize: oracleLine, Assoc: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		for c := ev.Off / oracleLine; c <= (ev.Off+ev.Size-1)/oracleLine; c++ {
			addr := addrspace.GlobalBase + addrspace.Addr(lineOf(ev.Obj, c)*oracleLine)
			cs.Access(addr, 1, object.Global, ev.Obj)
		}
	}
	return cs.Stats().Misses
}

// TestTRGWeightEqualsPairwiseConflictMisses checks the TRG build against
// the paper's reading of an edge weight, with no code shared between the
// two: with chunk size equal to line size, a recency queue that holds the
// whole footprint and only statics, moving chunk b onto chunk a's set of
// a direct-mapped cache — every other chunk keeping a set of its own —
// adds exactly weight(a, b) misses. Streams are fed through the enricher's
// batched path, so runs of adjacent accesses arrive folded, into the
// sequential Profiler and the sharded profiler at 1, 2 and 4 shards with
// adaptive warmup off, at its default (longer than the shorter streams)
// and short enough to fan out after a few batches.
func TestTRGWeightEqualsPairwiseConflictMisses(t *testing.T) {
	const sets = 128 // more lines than any stream's footprint
	cfg := Config{ChunkSize: oracleLine, QueueThreshold: 1 << 20, PopularityCutoff: 0.99}
	streams := []struct {
		seed              int64
		n, maxLines, evts int
		zipf              bool
	}{
		{1, 8, 1, 4000, false},
		{2, 16, 1, 12000, true},
		{3, 10, 3, 12000, false},
		{4, 12, 4, 16000, true},
	}
	type build struct {
		name string
		make func(*object.Table) (trace.RecHandler, func() *Profile)
	}
	builds := []build{{"sequential", func(tbl *object.Table) (trace.RecHandler, func() *Profile) {
		p, err := New(cfg, tbl)
		if err != nil {
			t.Fatal(err)
		}
		return p, p.Finish
	}}}
	for _, shards := range []int{1, 2, 4} {
		for _, warmup := range []int{-1, 0, 200} {
			c := cfg
			c.AdaptiveWarmup = warmup
			builds = append(builds, build{fmt.Sprintf("sharded%d/warmup%d", shards, warmup), func(tbl *object.Table) (trace.RecHandler, func() *Profile) {
				s, err := NewSharded(c, tbl, shards, sets*oracleLine)
				if err != nil {
					t.Fatal(err)
				}
				return s, s.Finish
			}})
		}
	}

	for _, st := range streams {
		// No pass mutates a table of statics, so every build shares it.
		tbl, evs, first := pairStream(st.seed, st.n, st.maxLines, st.evts, st.zipf)
		natural := func(obj object.ID, c int64) int { return first[obj] + int(c) }
		base := conflictMisses(t, evs, sets, natural)

		type chunk struct {
			obj object.ID
			c   int64
		}
		var chunks []chunk
		tbl.ForEach(func(in *object.Info) {
			if in.Category == object.Global {
				for c := int64(0); c < in.Size/oracleLine; c++ {
					chunks = append(chunks, chunk{in.ID, c})
				}
			}
		})
		want := make(map[[2]chunk]uint64)
		var conflicting int
		for i, a := range chunks {
			for _, b := range chunks[i+1:] {
				moved := func(obj object.ID, c int64) int {
					if obj == b.obj && c == b.c {
						return natural(a.obj, a.c) + sets
					}
					return natural(obj, c)
				}
				w := conflictMisses(t, evs, sets, moved) - base
				want[[2]chunk{a, b}] = w
				if w > 0 {
					conflicting++
				}
			}
		}
		t.Logf("stream %d: %d chunks, %d of %d pairs conflict", st.seed, len(chunks), conflicting, len(want))
		if conflicting == 0 {
			t.Fatalf("stream %d: no pair conflicts; the oracle checks nothing", st.seed)
		}

		for _, bd := range builds {
			sink, finish := bd.make(tbl)
			en := trace.NewEnricher(tbl, sink)
			for lo := 0; lo < len(evs); lo += trace.BatchSize {
				en.HandleBatch(evs[lo:min(lo+trace.BatchSize, len(evs))])
			}
			p := finish()
			key := func(ch chunk) trg.ChunkKey { return trg.MakeChunkKey(p.NodeOf[ch.obj], int(ch.c)) }
			var total, mismatched int
			for pair, w := range want {
				total++
				if got := p.Graph.Weight(key(pair[0]), key(pair[1])); got != w {
					if mismatched++; mismatched <= 3 {
						t.Errorf("stream %d %s: weight(%v, %v) = %d, moving them onto one set adds %d misses",
							st.seed, bd.name, pair[0], pair[1], got, w)
					}
				}
			}
			if mismatched > 0 {
				t.Errorf("stream %d %s: %d of %d pairs differ", st.seed, bd.name, mismatched, total)
			}
		}
	}
}

// TestShardEdgeCountersIgnoreSchedule holds the per-shard edge counters
// to the shard that owns each scanned chunk, whatever the schedule: the
// counters must read the same when the run fans out at once (warmup -1),
// after the default warmup, and never (a warmup longer than the stream).
func TestShardEdgeCountersIgnoreSchedule(t *testing.T) {
	const shards = 4
	for _, wl := range append(shardWorkloads, hitDominated) {
		var want []uint64
		for _, warmup := range []int{-1, 0, 1 << 30} {
			cfg := smallConfig()
			cfg.AdaptiveWarmup = warmup
			cfg.Metrics = metrics.New()
			runSharded(t, cfg, wl, shards, 8192)
			var got []uint64
			for i := 0; i < shards; i++ {
				got = append(got, cfg.Metrics.GetNamed(fmt.Sprintf("profile.shard%02d.edges", i)))
			}
			if want == nil {
				want = got
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: warmup %d per-shard edges %v, fanned out at once %v", wl.name, warmup, got, want)
			}
		}
	}
}

// recCapture keeps a copy of every record batch the enricher delivers, so
// one stream can feed several profilers.
type recCapture struct{ recs []trace.Rec }

func (c *recCapture) HandleRecs(recs []trace.Rec) { c.recs = append(c.recs, recs...) }

// pairwiseReplay is the TRG build before half-edges: it replays recs
// through one recency queue and adds every scanned pair with a symmetric
// AddWeight call to the graph of the shard that owns the touched chunk.
// It returns the shard graphs and their merge.
func pairwiseReplay(cfg Config, tbl *object.Table, recs []trace.Rec, shards int, owner func(trg.ChunkKey) int32) ([]*trg.Graph, *trg.Graph) {
	var b binder
	b.init(tbl, trg.NewGraph(cfg.ChunkSize))
	var q recencyQueue
	q.init(cfg.QueueThreshold, nil)
	parts := make([]*trg.Graph, shards)
	for i := range parts {
		parts[i] = trg.NewGraph(cfg.ChunkSize)
	}
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case trace.Alloc:
			b.noteAllocInfo(r.Obj, r.Info, r.NonUnique)
		case trace.Load, trace.Store:
			nd := b.nodeForInfo(r.Obj, r.Info)
			size := max((int64(r.More)+1)*r.Size, 1)
			for c := r.Off / cfg.ChunkSize; c <= (r.Off+size-1)/cfg.ChunkSize; c++ {
				key := trg.MakeChunkKey(nd, int(c))
				e := q.get(key)
				if e == nil {
					q.insert(key, max(min(cfg.ChunkSize, b.graph.Node(nd).Size-c*cfg.ChunkSize), 1))
					continue
				}
				for x := q.head; x != e; x = x.next {
					parts[owner(key)].AddWeight(key, x.key, 1)
				}
				q.moveToFront(e)
			}
		}
	}
	merged := trg.NewGraph(cfg.ChunkSize)
	for _, g := range parts {
		merged.Merge(g)
	}
	return parts, merged
}

// TestTRGCountersMatchPairwiseReplay pins what the TRG counters mean now
// that scans record half-edges: trg.edges counts each undirected edge once
// and trg.weight each scanned pair once, and profile.shardNN.edges counts
// each shard graph after its own mirror — the values a symmetric
// per-pair AddWeight replay of the same scans gives, at every shard count
// and schedule.
func TestTRGCountersMatchPairwiseReplay(t *testing.T) {
	// streaming touches each chunk of a large global once between touches
	// of a hot one, so its pairs are scanned from the hot end only: the
	// half-edge graph holds one direction of them until it is mirrored.
	streaming := workload{name: "streaming", run: func(tbl *object.Table, em *trace.Emitter) {
		hot, big := tbl.AddGlobal("hot", 64), tbl.AddGlobal("big", 300*256)
		for i := 0; i < 300; i++ {
			em.Load(hot, 0, 8)
			em.Load(big, int64(i)*256, 8)
		}
	}}
	for _, wl := range append(shardWorkloads, hitDominated, streaming) {
		tbl := object.NewTable(1024)
		var c recCapture
		em := trace.NewEmitter(tbl, trace.NewEnricher(tbl, &c))
		wl.run(tbl, em)
		em.Flush()
		feed := func(h trace.RecHandler) {
			for i := 0; i < len(c.recs); i += 256 {
				h.HandleRecs(c.recs[i:min(i+256, len(c.recs))])
			}
		}
		check := func(label string, mc *metrics.Collector, merged *trg.Graph) {
			t.Helper()
			if got, want := mc.Get(metrics.TRGEdges), uint64(merged.NumEdges()); got != want || want == 0 {
				t.Errorf("%s: trg.edges %d, pairwise replay %d", label, got, want)
			}
			if got, want := mc.Get(metrics.TRGWeight), merged.TotalWeight(); got != want {
				t.Errorf("%s: trg.weight %d, pairwise replay %d", label, got, want)
			}
		}

		cfg := smallConfig()
		cfg.Metrics = metrics.New()
		p, err := New(cfg, tbl)
		if err != nil {
			t.Fatal(err)
		}
		feed(p)
		p.Finish()
		_, merged := pairwiseReplay(cfg, tbl, c.recs, 1, func(trg.ChunkKey) int32 { return 0 })
		check(wl.name+"/sequential", cfg.Metrics, merged)

		for _, shards := range []int{1, 2, 4} {
			for _, warmup := range []int{-1, 0} {
				label := fmt.Sprintf("%s/shards=%d/warmup=%d", wl.name, shards, warmup)
				cfg := smallConfig()
				cfg.AdaptiveWarmup = warmup
				cfg.Metrics = metrics.New()
				s, err := NewSharded(cfg, tbl, shards, 8192)
				if err != nil {
					t.Fatal(err)
				}
				feed(s)
				s.Finish()
				parts, merged := pairwiseReplay(cfg, tbl, c.recs, shards, s.shardOf)
				check(label, cfg.Metrics, merged)
				for i, g := range parts {
					name := fmt.Sprintf("profile.shard%02d.edges", i)
					if got, want := cfg.Metrics.GetNamed(name), uint64(g.NumEdges()); got != want {
						t.Errorf("%s: %s %d, pairwise replay %d", label, name, got, want)
					}
				}
			}
		}
	}
}
