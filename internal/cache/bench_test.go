package cache

import (
	"fmt"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/object"
)

// touchConfigs are the geometries the touchBlock benchmark and the
// zero-alloc pin exercise: direct-mapped, 2-way, and 8-way.
func touchConfigs() []Config {
	return []Config{
		{Size: 8192, BlockSize: 32, Assoc: 1},
		{Size: 8192, BlockSize: 32, Assoc: 2},
		{Size: 8192, BlockSize: 32, Assoc: 8},
	}
}

// driveTouches walks a strided access pattern that both hits and misses:
// the span covers 4× the cache so every set cycles through cold fill,
// conflict eviction, and MRU reordering.
func driveTouches(s *Sim, rounds int) {
	span := addrspace.Addr(4 * s.cfg.Size)
	for r := 0; r < rounds; r++ {
		for a := addrspace.Addr(0); a < span; a += addrspace.Addr(s.cfg.BlockSize) {
			s.Access(a, 4, object.Global, 1)
		}
	}
}

// BenchmarkTouchBlock times driveTouches per geometry on the policy-free
// fast path and, with attribution attached, on the general touchBlock
// path.
func BenchmarkTouchBlock(b *testing.B) {
	for _, cfg := range touchConfigs() {
		for _, attr := range []bool{false, true} {
			name := fmt.Sprintf("%dw", cfg.Assoc)
			if attr {
				name += "-attr"
			}
			b.Run(name, func(b *testing.B) {
				s, err := New(cfg, false)
				if err != nil {
					b.Fatal(err)
				}
				if attr {
					s.SetAttribution(NewAttribution(cfg, 0))
				}
				s.PresizeObjects(2)
				driveTouches(s, 1) // warm past cold fill
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					driveTouches(s, 1)
				}
			})
		}
	}
}

// TestTouchBlockZeroAlloc pins that after construction and object
// pre-sizing, steady-state accesses on the policy-free path allocate
// nothing: every line lives in the one array New allocates.
func TestTouchBlockZeroAlloc(t *testing.T) {
	for _, cfg := range touchConfigs() {
		t.Run(fmt.Sprintf("%dw", cfg.Assoc), func(t *testing.T) {
			s, err := New(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			s.PresizeObjects(2)
			if allocs := testing.AllocsPerRun(3, func() { driveTouches(s, 1) }); allocs != 0 {
				t.Fatalf("steady-state accesses allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}
