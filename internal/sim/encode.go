package sim

import (
	"fmt"
	"strings"

	"repro/internal/cache"
)

// EncodeEvalResult renders every deterministic field of one evaluation
// result into a canonical byte string — the equality witness the sweep
// engine's differential tests compare. Two results encode identically
// exactly when the simulation produced the same cache statistics,
// per-object counts, allocator accounting, stream tallies, paging
// numbers, and miss attribution.
//
// Deliberately excluded: the Workload/Input labels (a trace replay
// carries neither, so the sweep's passes label results "" and a zero
// Input) and the Objects table pointer (identity, not content). Encoding
// a nil result returns "evalresult: nil\n" so diffs against missing
// cells fail loudly rather than match.
func EncodeEvalResult(r *EvalResult) []byte {
	if r == nil {
		return []byte("evalresult: nil\n")
	}
	var b strings.Builder
	b.WriteString("evalresult v1\n")
	fmt.Fprintf(&b, "layout %s\n", r.Layout)
	encodeCacheStats(&b, "cache", &r.Stats)
	if c := r.Counter; c != nil {
		fmt.Fprintf(&b, "counter %d %d %d %d %d %d\n",
			c.Loads, c.Stores, c.Allocs, c.AllocBytes, c.Frees, c.FreeBytes)
		fmt.Fprintf(&b, "counter.cats %v\n", c.CategoryRefs)
	}
	fmt.Fprintf(&b, "objrefs %d", len(r.ObjRefs))
	for _, v := range r.ObjRefs {
		fmt.Fprintf(&b, " %d", v)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "objmisses %d", len(r.ObjMisses))
	for _, v := range r.ObjMisses {
		fmt.Fprintf(&b, " %d", v)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "pages %d %.9f\n", r.TotalPages, r.WorkingSet)
	a := r.AllocStats
	fmt.Fprintf(&b, "alloc %d %d %d %d %d %d %d\n",
		a.Allocs, a.Frees, a.TableHits, a.BinAllocs, a.PrefPlaced, a.BrkExtends, a.BytesCarved)
	encodeAttribution(&b, r.Attribution)
	return []byte(b.String())
}

// EncodeHierarchyResult is EncodeEvalResult for multi-level passes.
func EncodeHierarchyResult(r *HierarchyResult) []byte {
	if r == nil {
		return []byte("hierresult: nil\n")
	}
	var b strings.Builder
	b.WriteString("hierresult v1\n")
	fmt.Fprintf(&b, "layout %s\n", r.Layout)
	encodeCacheStats(&b, "l1", &r.Stats.L1)
	encodeCacheStats(&b, "l2", &r.Stats.L2)
	fmt.Fprintf(&b, "tlb %d %d\n", r.Stats.TLBAccesses, r.Stats.TLBMisses)
	encodeAttribution(&b, r.Attribution)
	return []byte(b.String())
}

func encodeCacheStats(b *strings.Builder, tag string, s *cache.Stats) {
	fmt.Fprintf(b, "%s %s a=%d m=%d pf=%d pfh=%d wb=%d vh=%d\n",
		tag, s.Config.Short(), s.Accesses, s.Misses,
		s.Prefetches, s.PrefetchHits, s.Writebacks, s.VictimHits)
	fmt.Fprintf(b, "%s.cats %v %v\n", tag, s.CategoryAccesses, s.CategoryMisses)
	fmt.Fprintf(b, "%s.classes %v\n", tag, s.ClassMisses)
}

func encodeAttribution(b *strings.Builder, a *cache.AttributionStats) {
	if a == nil {
		b.WriteString("attrib nil\n")
		return
	}
	fmt.Fprintf(b, "attrib sets=%d pairs=%d\n", len(a.Sets), len(a.Pairs))
	for i, s := range a.Sets {
		if s == (cache.SetStats{}) {
			continue // sparse: most sets are untouched in small runs
		}
		fmt.Fprintf(b, "set %d %d %d %d\n", i, s.Accesses, s.Misses, s.Evictions)
	}
	for _, p := range a.Pairs {
		fmt.Fprintf(b, "pair %d %d %d %d\n", p.Victim, p.Evictor, p.Count, p.Err)
	}
}
