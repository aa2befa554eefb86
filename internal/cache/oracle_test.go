package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/object"
)

// Metamorphic oracles for the LRU kernel: they compare only miss counts
// across geometries on the same reference stream, so they need no model
// of the replacement logic they check.

// ref is one reference of a synthetic stream.
type ref struct {
	addr  addrspace.Addr
	size  int64
	write bool
}

// localStream draws n references with the locality real programs show:
// mostly reuse of a small hot set, sequential runs, and occasional
// jumps anywhere in a 1 MiB region. Some references straddle a line.
func localStream(seed int64, n int) []ref {
	r := rand.New(rand.NewSource(seed))
	const region = 1 << 20
	hot := make([]addrspace.Addr, 96)
	for i := range hot {
		hot[i] = addrspace.Addr(r.Intn(region/8) * 8)
	}
	refs := make([]ref, n)
	cur := addrspace.Addr(0)
	for i := range refs {
		switch p := r.Intn(10); {
		case p < 6:
			cur = hot[r.Intn(len(hot))]
		case p < 9:
			cur += addrspace.Addr(4 * (1 + r.Intn(8)))
		default:
			cur = addrspace.Addr(r.Intn(region/4) * 4)
		}
		cur %= region
		refs[i] = ref{addr: cur, size: int64(4 << r.Intn(3)), write: r.Intn(4) == 0}
	}
	return refs
}

// checkInclusion replays refs through one fresh default-policy cache per
// config, in lockstep, and fails if any reference makes a later config
// miss more blocks than the one before it. Holding per reference, not
// just in total, is what inclusion promises: every block resident in the
// smaller cache is resident in the larger.
func checkInclusion(t *testing.T, name string, cfgs []Config, refs []ref) {
	t.Helper()
	sims := make([]*Sim, len(cfgs))
	for i, cfg := range cfgs {
		sims[i] = mustNew(t, cfg, false)
	}
	prev := make([]uint64, len(sims))
	for n, rf := range refs {
		for i, s := range sims {
			if rf.write {
				s.Write(rf.addr, rf.size, object.Global, 0)
			} else {
				s.Access(rf.addr, rf.size, object.Global, 0)
			}
			m := s.Stats().Misses
			if i > 0 && m-prev[i] > sims[i-1].Stats().Misses-prev[i-1] {
				t.Fatalf("%s: reference %d (%#x) missed at %d ways but not at %d",
					name, n, uint64(rf.addr), cfgs[i].Assoc, cfgs[i-1].Assoc)
			}
		}
		for i, s := range sims {
			prev[i] = s.Stats().Misses
		}
	}
	if first, last := sims[0].Stats().Misses, sims[len(sims)-1].Stats().Misses; first == last {
		t.Fatalf("%s: %d and %d ways both missed %d times; the stream does not tell them apart",
			name, cfgs[0].Assoc, cfgs[len(cfgs)-1].Assoc, first)
	}
}

// TestMattsonInclusion: a fully-associative LRU cache's contents are
// always a subset of a larger one's (Mattson's inclusion property), so a
// one-set cache never gains misses as its ways double from 1 to 64.
func TestMattsonInclusion(t *testing.T) {
	var cfgs []Config
	for ways := 1; ways <= 64; ways *= 2 {
		cfgs = append(cfgs, Config{Size: int64(ways) * 32, BlockSize: 32, Assoc: ways})
	}
	for seed := int64(1); seed <= 4; seed++ {
		checkInclusion(t, fmt.Sprintf("seed %d", seed), cfgs, localStream(seed, 40000))
	}
}

// TestLRUStackProperty: at a fixed set count every set is an independent
// fully-associative LRU cache, so misses never increase with
// associativity.
func TestLRUStackProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		refs := localStream(seed, 40000)
		for _, sets := range []int64{1, 16, 128} {
			for _, block := range []int64{16, 32, 64} {
				var cfgs []Config
				for ways := 1; ways <= 16; ways *= 2 {
					cfgs = append(cfgs, Config{Size: sets * int64(ways) * block, BlockSize: block, Assoc: ways})
				}
				checkInclusion(t, fmt.Sprintf("seed %d, %d sets of %dB lines", seed, sets, block), cfgs, refs)
			}
		}
	}
}
