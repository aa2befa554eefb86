package trace

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/object"
)

// Rec is one enriched event, or a run of adjacent accesses: the event
// plus every object-table fact a downstream pass reads, resolved once by
// the Enricher at the stream position where the live table holds it. The
// profilers (binding and TRG build) and sim's address-resolving evaluator
// consume Recs only, never the table, so records can be fanned out to
// concurrent consumers while the decoder's table keeps mutating.
//
// A Load or Store record stands for More+1 accesses of its kind to Obj,
// each Size bytes, at Off, Off+Size, Off+2*Size and so on (see
// Enricher.Append). The accesses touch blocks in ascending order, each
// starting on the block the one before ended on or on the next, so a
// consumer whose state an immediate re-touch leaves unchanged (a
// direct-mapped filter, the TRG recency queue) may touch the run's span
// [Off, Off+(More+1)*Size) once; any other consumer steps each access.
type Rec struct {
	Kind Kind
	// Cat is the object's category.
	Cat object.Category
	// NonUnique is set on Alloc records when more than one live object
	// carried the XOR name at the moment the Alloc was delivered.
	NonUnique bool
	// More is how many further accesses a Load or Store record's run
	// holds; 0 on every other record.
	More uint8
	Obj  object.ID
	Off  int64
	// Size is the access length (Load/Store), the allocation length
	// (Alloc), or the freed object's size (Free).
	Size int64

	// Info is an immutable snapshot of the object's table entry, taken
	// the first time the object appears. Consumers read only fields fixed
	// at insertion (Category, Name, Size, NaturalAddr, XORName), so one
	// snapshot per object is enough.
	Info *object.Info
}

// RecHandler consumes batches of enriched records. The slice is only
// valid for the duration of the call.
type RecHandler interface {
	HandleRecs(recs []Rec)
}

// maxSnapshotChunk caps how many Info snapshots one slab allocation
// holds.
const maxSnapshotChunk = 1024

// Enricher turns the event stream into Recs. Per record it does one
// lookup in its snapshot index (the object table is read only at an
// object's first appearance and, for Allocs, for the live-XOR-name count)
// and per event it tallies the stream once: the Counter's totals and the
// per-object reference counts that Step-driven cache simulators are
// stamped with (cache.Sim.SetTally).
//
// As a BatchHandler it hands each delivered event batch to its sink as one
// record batch, so the sink sees the same batch boundaries the emitter
// produced; runs fold within the batch. HandleEvent's batches of one
// record never fold. Callers that batch records themselves use Append
// instead.
type Enricher struct {
	// Counter holds the stream totals of every event enriched so far.
	Counter *Counter
	// ObjRefs counts loads and stores per object, pre-sized to the table
	// at construction and grown by cache.GrowObjCounts.
	ObjRefs []uint64

	objs  *object.Table
	infos []*object.Info
	slab  []object.Info
	sink  RecHandler
	recs  []Rec
}

// NewEnricher returns an enricher over objs feeding sink (nil when the
// caller only uses Append).
func NewEnricher(objs *object.Table, sink RecHandler) *Enricher {
	return &Enricher{
		Counter: NewCounter(objs),
		ObjRefs: make([]uint64, objs.Len()),
		objs:    objs,
		infos:   make([]*object.Info, objs.Len()),
		sink:    sink,
	}
}

// HandleEvent implements Handler: the event reaches the sink as a batch
// of one record.
func (e *Enricher) HandleEvent(ev Event) {
	e.recs = e.Append(e.recs[:0], ev)
	e.sink.HandleRecs(e.recs)
}

// HandleBatch implements BatchHandler: the batch reaches the sink as one
// record batch.
func (e *Enricher) HandleBatch(evs []Event) {
	e.recs = e.Append(e.recs[:0], evs...)
	e.sink.HandleRecs(e.recs)
}

// Append enriches and tallies evs and appends their records to dst. A
// load or store that extends dst's last record — same kind and object,
// equal size above zero, starting where that record's run ends — folds
// into it, up to 256 accesses a record. Every event is tallied once.
func (e *Enricher) Append(dst []Rec, evs ...Event) []Rec {
	n := len(dst)
	// Extending within capacity skips zeroing: enrich writes every field.
	dst = slices.Grow(dst, len(evs))[:n+len(evs)]
	for i := range evs {
		ev := &evs[i]
		if n > 0 && extends(&dst[n-1], ev) {
			r := &dst[n-1]
			r.More++
			e.Counter.add(ev, r.Info)
			e.ObjRefs[ev.Obj]++
			continue
		}
		e.enrich(&dst[n], ev)
		n++
	}
	return dst[:n]
}

// extends reports whether access ev continues r's run.
func extends(r *Rec, ev *Event) bool {
	return ev.Kind == r.Kind && ev.Obj == r.Obj && ev.Size == r.Size && ev.Size > 0 &&
		r.Kind <= Store && r.More < 255 && ev.Off == r.Off+int64(r.More+1)*ev.Size
}

// enrich fills r with the record of ev and tallies ev.
func (e *Enricher) enrich(r *Rec, ev *Event) {
	in := e.info(ev.Obj)
	// Stored field by field: assigning a composite literal to *r measured
	// several times slower on this per-event path.
	r.Kind, r.Cat, r.NonUnique, r.More = ev.Kind, in.Category, false, 0
	r.Obj, r.Off, r.Size, r.Info = ev.Obj, ev.Off, ev.Size, in
	e.Counter.add(ev, in)
	switch ev.Kind {
	case Load, Store:
		if int(ev.Obj) >= len(e.ObjRefs) {
			e.ObjRefs = cache.GrowObjCounts(e.ObjRefs, ev.Obj)
		}
		e.ObjRefs[ev.Obj]++
	case Alloc:
		r.NonUnique = e.objs.LiveWithXOR(in.XORName) > 1
	case Free:
		r.Size = in.Size
	}
}

// info returns the snapshot of object id, taking it on first appearance.
func (e *Enricher) info(id object.ID) *object.Info {
	if int(id) < len(e.infos) {
		if in := e.infos[id]; in != nil {
			return in
		}
	}
	return e.snapshot(id)
}

func (e *Enricher) snapshot(id object.ID) *object.Info {
	for int(id) >= len(e.infos) {
		e.infos = append(e.infos, nil)
	}
	if len(e.slab) == cap(e.slab) {
		// A fresh chunk, twice the last one up to maxSnapshotChunk: a
		// short pass allocates little, and earlier snapshots stay where
		// they are.
		e.slab = make([]object.Info, 0, min(max(2*cap(e.slab), 16), maxSnapshotChunk))
	}
	e.slab = append(e.slab, *e.objs.Get(id))
	in := &e.slab[len(e.slab)-1]
	e.infos[id] = in
	return in
}
