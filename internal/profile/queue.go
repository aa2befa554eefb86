package profile

import (
	"repro/internal/metrics"
	"repro/internal/trg"
)

// recencyQueue is the paper's Q (section 3.2): a move-to-front list of the
// most recently touched chunks, capped at threshold total bytes. It is the
// single mutable structure of the profiling pass, so it is factored out of
// the Profiler to be reusable by the sharded profiler's per-shard workers,
// whose queues replay the same touch stream (see sharded.go).
//
// Entries are recycled through a free list: the queue churns one eviction
// per insertion once warm, so steady-state touches allocate nothing (the
// entry count is bounded by threshold/smallest-chunk anyway).
type recencyQueue struct {
	threshold int64
	entries   map[trg.ChunkKey]*qEntry
	head      *qEntry // most recent
	tail      *qEntry
	bytes     int64

	// free chains evicted entries through their next pointers for reuse.
	free *qEntry

	// metrics counts capacity evictions (nil = disabled). The sharded
	// profiler attaches it to exactly one replica so the eviction count
	// matches a sequential run's.
	metrics *metrics.Collector
}

type qEntry struct {
	key        trg.ChunkKey
	size       int64
	prev, next *qEntry
}

// init readies the queue; threshold is the byte cap (paper: 2x cache size).
func (q *recencyQueue) init(threshold int64, mc *metrics.Collector) {
	q.threshold = threshold
	q.entries = make(map[trg.ChunkKey]*qEntry)
	q.metrics = mc
}

// get returns key's entry, or nil when key is not queued.
func (q *recencyQueue) get(key trg.ChunkKey) *qEntry { return q.entries[key] }

// ahead appends to dst the keys of the entries ahead of e, most recent
// first: the chunks referenced since e's key was last touched.
func (q *recencyQueue) ahead(e *qEntry, dst []trg.ChunkKey) []trg.ChunkKey {
	for x := q.head; x != nil && x != e; x = x.next {
		dst = append(dst, x.key)
	}
	return dst
}

// occupancy returns the queued bytes.
func (q *recencyQueue) occupancy() int64 { return q.bytes }

// insert queues a fresh key at the front and evicts from the tail while
// over threshold. Entries that fall off the end would have been evicted by
// capacity anyway, so no relationship is ever recorded for them.
func (q *recencyQueue) insert(key trg.ChunkKey, size int64) {
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
	} else {
		e = new(qEntry)
	}
	e.key, e.size = key, size
	q.entries[key] = e
	q.pushFront(e)
	q.bytes += size
	for q.bytes > q.threshold && q.tail != nil && q.tail != q.head {
		victim := q.tail
		q.unlink(victim)
		delete(q.entries, victim.key)
		q.bytes -= victim.size
		victim.next = q.free
		q.free = victim
		q.metrics.Add(metrics.QueueEvictions, 1)
	}
}

func (q *recencyQueue) pushFront(e *qEntry) {
	e.prev = nil
	e.next = q.head
	if q.head != nil {
		q.head.prev = e
	}
	q.head = e
	if q.tail == nil {
		q.tail = e
	}
}

func (q *recencyQueue) unlink(e *qEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (q *recencyQueue) moveToFront(e *qEntry) {
	if q.head == e {
		return
	}
	q.unlink(e)
	q.pushFront(e)
}
