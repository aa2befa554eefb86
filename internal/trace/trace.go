// Package trace defines the memory-reference event stream that connects
// workload models to the profiler and the cache simulator.
//
// The role of this package corresponds to ATOM in the paper: it delivers a
// stream of loads, stores, allocations, and frees tagged with the data
// object they touch. References carry (object, offset) rather than raw
// addresses so the same logical trace can be replayed under different
// placements — exactly how the paper's evaluation remaps old addresses to
// new ones.
package trace

import "repro/internal/object"

// Kind discriminates event types.
type Kind uint8

// Event kinds.
const (
	Load Kind = iota
	Store
	Alloc
	Free
)

// String returns the event kind name.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Alloc:
		return "alloc"
	case Free:
		return "free"
	default:
		return "invalid"
	}
}

// Event is one element of the reference stream. For Load/Store, Obj/Off/
// Size describe the access. For Alloc, Obj is the new object's ID and Size
// its length. For Free, Obj is the dying object.
type Event struct {
	Kind Kind
	Obj  object.ID
	Off  int64
	Size int64
}

// Handler consumes the event stream. Handlers are invoked synchronously on
// the emitting goroutine; implementations must not retain the event.
type Handler interface {
	HandleEvent(ev Event)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Event)

// HandleEvent calls f(ev).
func (f HandlerFunc) HandleEvent(ev Event) { f(ev) }

// BatchHandler is the fast-path extension of Handler: the emitter hands
// over runs of consecutive events in one call, so consumers process them
// in a tight loop instead of paying a dynamic dispatch per reference.
// The slice is only valid for the duration of the call and must not be
// retained; events arrive in exactly the order they were emitted, and a
// handler implementing BatchHandler still receives non-batched events
// (allocations and frees) through HandleEvent.
type BatchHandler interface {
	Handler
	HandleBatch(evs []Event)
}

// Tee fans one stream out to several handlers in order.
type Tee []Handler

// HandleEvent forwards ev to every handler.
func (t Tee) HandleEvent(ev Event) {
	for _, h := range t {
		h.HandleEvent(ev)
	}
}

// HandleBatch forwards a batch to every handler, unrolling it for
// handlers that only speak the single-event interface.
func (t Tee) HandleBatch(evs []Event) {
	for _, h := range t {
		if bh, ok := h.(BatchHandler); ok {
			bh.HandleBatch(evs)
			continue
		}
		for i := range evs {
			h.HandleEvent(evs[i])
		}
	}
}

// Counter tallies stream statistics: reference counts overall, loads vs
// stores, per-category reference counts, and allocation statistics. It
// feeds Table 1 of the paper.
type Counter struct {
	Objects *object.Table

	Loads  uint64
	Stores uint64

	CategoryRefs [object.NumCategories]uint64

	Allocs     uint64
	AllocBytes uint64
	Frees      uint64
	FreeBytes  uint64
}

// NewCounter returns a counter attributing references via objs.
func NewCounter(objs *object.Table) *Counter {
	return &Counter{Objects: objs}
}

// Refs returns the total number of data references seen.
func (c *Counter) Refs() uint64 { return c.Loads + c.Stores }

// HandleEvent implements Handler.
func (c *Counter) HandleEvent(ev Event) { c.add(&ev, c.Objects.Get(ev.Obj)) }

// add tallies one event of the object in.
func (c *Counter) add(ev *Event, in *object.Info) {
	switch ev.Kind {
	case Load:
		c.Loads++
		c.CategoryRefs[in.Category]++
	case Store:
		c.Stores++
		c.CategoryRefs[in.Category]++
	case Alloc:
		c.Allocs++
		c.AllocBytes += uint64(ev.Size)
	case Free:
		c.Frees++
		c.FreeBytes += uint64(in.Size)
	}
}

// HandleBatch implements BatchHandler: the same tallies as HandleEvent,
// without the per-event interface dispatch.
func (c *Counter) HandleBatch(evs []Event) {
	for i := range evs {
		c.HandleEvent(evs[i])
	}
}

// AvgAllocSize returns the mean allocation size in bytes.
func (c *Counter) AvgAllocSize() float64 {
	if c.Allocs == 0 {
		return 0
	}
	return float64(c.AllocBytes) / float64(c.Allocs)
}

// AvgFreeSize returns the mean freed-object size in bytes.
func (c *Counter) AvgFreeSize() float64 {
	if c.Frees == 0 {
		return 0
	}
	return float64(c.FreeBytes) / float64(c.Frees)
}
