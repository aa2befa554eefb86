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
//
// A queue may also carry nested queues of smaller thresholds (see nest),
// which one list serves: each is a prefix of it.
type recencyQueue struct {
	threshold int64
	entries   map[trg.ChunkKey]*qEntry
	head      *qEntry // most recent
	tail      *qEntry
	bytes     int64
	evicted   uint64 // capacity evictions so far

	// lower are the nested queues, by ascending threshold.
	lower []nestedQueue

	// free chains evicted entries through their next pointers for reuse.
	free *qEntry

	// metrics counts capacity evictions (nil = disabled). The sharded
	// profiler leaves it nil and reports evicted once, at Finish.
	metrics *metrics.Collector
}

type qEntry struct {
	key        trg.ChunkKey
	size       int64
	prev, next *qEntry

	// in has bit j set while nested queue j holds the entry, and
	// sizes[j] is the size it was queued there with.
	in    uint64
	sizes []int64
}

// nestedQueue is the queue a smaller threshold would keep over the same
// touches. Every queue holds the longest prefix of the most-recent order
// of touched chunks that its eviction rule leaves, so a smaller queue is a
// prefix of a larger one (the LRU inclusion property, Mattson et al.
// 1970), and it is tracked by where its tail falls in the larger list.
// Entries keep the size they were queued with, and a chunk of a heap node
// grows when a later allocation of its name is larger, so the smaller
// queue may hold a chunk at a larger size than the list does. That is why
// it keeps its own membership bits and sizes, and does not re-derive
// itself from the list's byte counts.
type nestedQueue struct {
	threshold int64
	tail      *qEntry // last entry held; nil while empty
	n         int
	bytes     int64
	evicted   uint64
}

// maxNested caps the nested queues: membership is one bit each.
const maxNested = 64

// init readies the queue; threshold is the byte cap (paper: 2x cache size).
func (q *recencyQueue) init(threshold int64, mc *metrics.Collector) {
	q.threshold = threshold
	q.entries = make(map[trg.ChunkKey]*qEntry)
	q.metrics = mc
}

// nest adds nested queues for thresholds, which must ascend, be at most
// q's threshold and number at most maxNested. It must run before the
// first touch.
func (q *recencyQueue) nest(thresholds []int64) {
	for _, t := range thresholds {
		q.lower = append(q.lower, nestedQueue{threshold: t})
	}
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

// hit moves the queued entry e to the front for a touch of size bytes.
// A nested queue that holds e keeps it; one that does not queues it
// fresh at size, as its own queue would on this touch.
func (q *recencyQueue) hit(e *qEntry, size int64) {
	for j := range q.lower {
		if l := &q.lower[j]; e.in&(1<<j) != 0 && l.tail == e && l.n > 1 {
			l.tail = e.prev
		}
	}
	q.moveToFront(e)
	for j := range q.lower {
		if e.in&(1<<j) == 0 {
			q.lower[j].push(e, j, size)
		}
	}
}

// insert queues a fresh key at the front and evicts from the tail while
// over threshold. Entries that fall off the end would have been evicted by
// capacity anyway, so no relationship is ever recorded for them. Every
// nested queue queues the key too, and evicts its own tail first: a
// nested queue never holds an entry the list drops.
func (q *recencyQueue) insert(key trg.ChunkKey, size int64) {
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
	} else {
		e = new(qEntry)
		if len(q.lower) > 0 {
			e.sizes = make([]int64, len(q.lower))
		}
	}
	e.key, e.size, e.in = key, size, 0
	q.entries[key] = e
	q.pushFront(e)
	q.bytes += size
	for j := range q.lower {
		q.lower[j].push(e, j, size)
	}
	for q.bytes > q.threshold && q.tail != nil && q.tail != q.head {
		victim := q.tail
		if victim.in != 0 {
			panic("profile: a nested recency queue outgrew its list")
		}
		q.unlink(victim)
		delete(q.entries, victim.key)
		q.bytes -= victim.size
		victim.next = q.free
		q.free = victim
		q.evicted++
		q.metrics.Add(metrics.QueueEvictions, 1)
	}
}

// push queues e, already at the list's front, as nested queue j's newest
// entry, then evicts from its tail while it is over threshold.
func (l *nestedQueue) push(e *qEntry, j int, size int64) {
	e.in |= 1 << j
	e.sizes[j] = size
	if l.tail == nil {
		l.tail = e
	}
	l.n++
	l.bytes += size
	for l.bytes > l.threshold && l.n > 1 {
		v := l.tail
		l.tail = v.prev
		v.in &^= 1 << j
		l.bytes -= v.sizes[j]
		l.n--
		l.evicted++
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
