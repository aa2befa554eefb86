// Package sweep is the layout-sweep engine: it replays one stored trace
// through a grid of configurations — cache geometry, profiling chunk
// size, recency-queue threshold, placement-policy variant, and optional
// L1+L2+TLB hierarchy points — while decoding the trace exactly once.
// The decoder enriches each event with the object-table facts a
// simulator needs (category, allocation XOR name, freed-object size)
// and broadcasts refcounted batches to per-configuration evaluators, so
// N grid cells cost one decode plus N cheap simulation loops instead of
// N full replays. Every cell's result is byte-identical to an
// independent sim.Run of that one cell over its own replay; the
// differential tests hold the engine to that.
package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/profile"
	"repro/internal/sim"
)

// L2Point adds a second-level cache (and data TLB) behind a cell's L1,
// turning that cell into a hierarchy evaluation.
type L2Point struct {
	Size  int64 `json:"size"`
	Block int64 `json:"block"`
	Assoc int   `json:"assoc"`
	TLB   int   `json:"tlb"` // fully-associative data-TLB entries (0 disables)
}

// Config returns the L2 cache geometry.
func (p L2Point) Config() cache.Config {
	return cache.Config{Size: p.Size, BlockSize: p.Block, Assoc: p.Assoc}
}

// Grid is the cross product of sweep axes. Zero values select the
// defaults below, so an empty grid is the paper's single default
// configuration compared across natural and CCDP layouts.
type Grid struct {
	Sizes   []int64  `json:"sizes,omitempty"`   // cache sizes in bytes (default 8192)
	Blocks  []int64  `json:"blocks,omitempty"`  // line sizes in bytes (default 32)
	Assocs  []int    `json:"assocs,omitempty"`  // associativities (default 1)
	Chunks  []int64  `json:"chunks,omitempty"`  // profiling chunk sizes; 0 = profile default
	Queues  []int64  `json:"queues,omitempty"`  // recency-queue thresholds; 0 = 2x cache size
	Layouts []string `json:"layouts,omitempty"` // placement variants (default natural, ccdp)

	// Cutoffs lists popularity cutoffs for the profile's popular-node
	// selection; 0 = profile default (0.99). Each value is a distinct
	// profiling pass: the cutoff is folded into the persisted profile.
	Cutoffs []float64 `json:"cutoffs,omitempty"`
	// Heaps lists default-heap-allocator variants ("first", "temporal";
	// "" = first). The variant applies where the evaluation would use
	// the default allocator — natural layouts and CCDP without heap
	// placement; random and CCDP-with-heap-placement cells ignore it.
	Heaps []string `json:"heaps,omitempty"`

	// L2 lists hierarchy points: each adds one copy of the L1 grid with
	// the given L2+TLB behind it. The L1-only cells are always present.
	L2 []L2Point `json:"l2,omitempty"`
}

// Cell is one fully resolved grid point.
type Cell struct {
	Cache  cache.Config
	L2     *cache.Config // non-nil selects the hierarchy evaluation
	TLB    int           // data-TLB entries (hierarchy cells only)
	Chunk  int64         // profiling chunk size (0 = profile default)
	Queue  int64         // recency-queue threshold (0 = 2x cache size)
	Cutoff float64       // popularity cutoff (0 = profile default)
	Heap   string        // default-heap-allocator variant ("" = first-fit)
	Layout sim.LayoutKind

	// Attribution attaches the per-set/conflict-pair miss-attribution
	// sink to this cell (the L1 on hierarchy cells). Off by default;
	// the sweep CLI and tests switch it on per cell.
	Attribution bool
}

// member is the cell's simulator in its layout group.
func (c Cell) member() sim.Member {
	if c.L2 == nil {
		return sim.Member{Cache: c.Cache}
	}
	return sim.Member{Hier: &hierarchy.Config{L1: c.Cache, L2: *c.L2, TLBEntries: c.TLB}}
}

// Options derives the cell's evaluation options from the sweep's base
// options: the cell geometry replaces the cache, and the profiling
// config is re-derived so chunk and queue defaults track the cell's
// cache size exactly as sim.DefaultOptions derives them from the
// default cache. Both the shared-decode engine and the independent
// per-cell path build options through here, which is what makes the
// differential comparison meaningful.
func (c Cell) Options(base sim.Options) sim.Options {
	o := base
	o.Cache = c.Cache
	def := profile.DefaultConfig(c.Cache.Size)
	pc := base.Profile
	pc.ChunkSize = def.ChunkSize
	pc.QueueThreshold = def.QueueThreshold
	if c.Chunk > 0 {
		pc.ChunkSize = c.Chunk
	}
	if c.Queue > 0 {
		pc.QueueThreshold = c.Queue
	}
	if c.Cutoff > 0 {
		pc.PopularityCutoff = c.Cutoff
	}
	o.Profile = pc
	o.Attribution = c.Attribution
	o.HeapFit = c.Heap
	return o
}

// profileKey identifies the profiling pass a cell needs: two cells with
// equal effective (chunk, queue, cutoff) share one profile. The cutoff
// joins the key because Graph.Finalize folds it into popularity flags and
// the persisted profile bytes.
func (c Cell) profileKey(base sim.Options) string {
	pc := c.Options(base).Profile
	return fmt.Sprintf("c%d/q%d/p%g", pc.ChunkSize, pc.QueueThreshold, pc.PopularityCutoff)
}

// placementKey identifies the placement pass a cell needs: the profile
// plus the cache geometry the placer packs against.
func (c Cell) placementKey(base sim.Options) string {
	return c.profileKey(base) + "/" + c.Cache.Short()
}

// Label renders the cell compactly for tables and ledger rows, e.g.
// "8K/32/dm c512 q16K ccdp" or "8K/32/dm+L2:96K/32/3w natural".
func (c Cell) Label() string {
	var b strings.Builder
	b.WriteString(c.Cache.Short())
	if c.L2 != nil {
		b.WriteString("+L2:" + c.L2.Short())
	}
	if c.Chunk > 0 {
		fmt.Fprintf(&b, " c%d", c.Chunk)
	}
	if c.Queue > 0 {
		fmt.Fprintf(&b, " q%d", c.Queue)
	}
	if c.Cutoff > 0 {
		fmt.Fprintf(&b, " p%g", c.Cutoff)
	}
	b.WriteString(" " + string(c.Layout))
	if c.Heap != "" && c.Heap != "first" {
		b.WriteString(" " + c.Heap)
	}
	return b.String()
}

// Bytes returns the cell's total cache capacity — the x axis of the
// capacity-vs-miss-rate frontier. Hierarchy cells count L1+L2.
func (c Cell) Bytes() int64 {
	if c.L2 != nil {
		return c.Cache.Size + c.L2.Size
	}
	return c.Cache.Size
}

// withDefaults fills empty axes.
func (g Grid) withDefaults() Grid {
	if len(g.Sizes) == 0 {
		g.Sizes = []int64{cache.DefaultConfig.Size}
	}
	if len(g.Blocks) == 0 {
		g.Blocks = []int64{cache.DefaultConfig.BlockSize}
	}
	if len(g.Assocs) == 0 {
		g.Assocs = []int{cache.DefaultConfig.Assoc}
	}
	if len(g.Chunks) == 0 {
		g.Chunks = []int64{0}
	}
	if len(g.Queues) == 0 {
		g.Queues = []int64{0}
	}
	if len(g.Layouts) == 0 {
		g.Layouts = []string{string(sim.LayoutNatural), string(sim.LayoutCCDP)}
	}
	if len(g.Cutoffs) == 0 {
		g.Cutoffs = []float64{0}
	}
	if len(g.Heaps) == 0 {
		g.Heaps = []string{""}
	}
	return g
}

// Cells expands the grid into its cross product, hierarchy levels
// outermost: first every L1-only cell, then the full L1 grid behind each
// L2 point. The order is deterministic; the engine's results are
// independent of it.
func (g Grid) Cells() ([]Cell, error) {
	g = g.withDefaults()
	levels := make([]*L2Point, 0, 1+len(g.L2))
	levels = append(levels, nil)
	for i := range g.L2 {
		levels = append(levels, &g.L2[i])
	}
	var cells []Cell
	for _, l2 := range levels {
		for _, size := range g.Sizes {
			for _, block := range g.Blocks {
				for _, assoc := range g.Assocs {
					for _, chunk := range g.Chunks {
						for _, queue := range g.Queues {
							for _, cutoff := range g.Cutoffs {
								for _, lk := range g.Layouts {
									for _, heap := range g.Heaps {
										c := Cell{
											Cache:  cache.Config{Size: size, BlockSize: block, Assoc: assoc},
											Chunk:  chunk,
											Queue:  queue,
											Cutoff: cutoff,
											Heap:   heap,
											Layout: sim.LayoutKind(lk),
										}
										if l2 != nil {
											cfg := l2.Config()
											c.L2 = &cfg
											c.TLB = l2.TLB
										}
										cells = append(cells, c)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for i, c := range cells {
		if err := validateCell(c); err != nil {
			return nil, fmt.Errorf("sweep: cell %d (%s): %w", i, c.Label(), err)
		}
	}
	return cells, nil
}

func validateCell(c Cell) error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	switch c.Layout {
	case sim.LayoutNatural, sim.LayoutCCDP, sim.LayoutRandom:
	default:
		return fmt.Errorf("unknown layout kind %q", c.Layout)
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return err
		}
		if c.L2.Size < c.Cache.Size {
			return fmt.Errorf("L2 (%d) smaller than L1 (%d)", c.L2.Size, c.Cache.Size)
		}
	}
	if c.TLB < 0 {
		return fmt.Errorf("negative TLB entries")
	}
	switch c.Heap {
	case "", "first", "temporal":
	default:
		return fmt.Errorf("unknown heap fit %q (want first or temporal)", c.Heap)
	}
	pc := profile.DefaultConfig(c.Cache.Size)
	if c.Chunk > 0 {
		pc.ChunkSize = c.Chunk
	}
	if c.Queue > 0 {
		pc.QueueThreshold = c.Queue
	}
	if c.Cutoff > 0 {
		pc.PopularityCutoff = c.Cutoff
	}
	if err := pc.Validate(); err != nil {
		return err
	}
	return nil
}

// ParseAxes builds a grid from the comma-separated CLI flag values, e.g.
// sizes "4096,8192,16384", layouts "natural,ccdp", cutoffs "0.9,0.99",
// heaps "first,temporal". The l2 flag lists hierarchy points as
// size/block/assoc/tlb quadruples, e.g. "98304/32/3/32;262144/64/4/64"
// (semicolon-separated).
func ParseAxes(sizes, blocks, assocs, chunks, queues, cutoffs, layouts, heaps, l2 string) (Grid, error) {
	var g Grid
	var err error
	if g.Sizes, err = parseInt64s(sizes); err != nil {
		return g, fmt.Errorf("sweep: sizes: %w", err)
	}
	if g.Blocks, err = parseInt64s(blocks); err != nil {
		return g, fmt.Errorf("sweep: blocks: %w", err)
	}
	if g.Assocs, err = parseInts(assocs); err != nil {
		return g, fmt.Errorf("sweep: assocs: %w", err)
	}
	if g.Chunks, err = parseInt64s(chunks); err != nil {
		return g, fmt.Errorf("sweep: chunks: %w", err)
	}
	if g.Queues, err = parseInt64s(queues); err != nil {
		return g, fmt.Errorf("sweep: queues: %w", err)
	}
	if g.Cutoffs, err = parseFloats(cutoffs); err != nil {
		return g, fmt.Errorf("sweep: cutoffs: %w", err)
	}
	for _, f := range splitList(layouts, ",") {
		g.Layouts = append(g.Layouts, f)
	}
	for _, f := range splitList(heaps, ",") {
		g.Heaps = append(g.Heaps, f)
	}
	for _, spec := range splitList(l2, ";") {
		parts := strings.Split(spec, "/")
		if len(parts) != 4 {
			return g, fmt.Errorf("sweep: l2 point %q: want size/block/assoc/tlb", spec)
		}
		var p L2Point
		if p.Size, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
			return g, fmt.Errorf("sweep: l2 size %q: %w", parts[0], err)
		}
		if p.Block, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return g, fmt.Errorf("sweep: l2 block %q: %w", parts[1], err)
		}
		if p.Assoc, err = strconv.Atoi(parts[2]); err != nil {
			return g, fmt.Errorf("sweep: l2 assoc %q: %w", parts[2], err)
		}
		if p.TLB, err = strconv.Atoi(parts[3]); err != nil {
			return g, fmt.Errorf("sweep: l2 tlb %q: %w", parts[3], err)
		}
		g.L2 = append(g.L2, p)
	}
	return g, nil
}

// LoadGridFile reads a JSON grid description (the Grid type verbatim).
func LoadGridFile(path string) (Grid, error) {
	var g Grid
	data, err := os.ReadFile(path)
	if err != nil {
		return g, fmt.Errorf("sweep: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return g, fmt.Errorf("sweep: grid file %s: %w", path, err)
	}
	return g, nil
}

func splitList(s, sep string) []string {
	var out []string
	for _, f := range strings.Split(s, sep) {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, f := range splitList(s, ",") {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s, ",") {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s, ",") {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
