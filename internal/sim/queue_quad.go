package sim

import (
	"math/bits"
	"sync"
)

// eventQueue orders entries by (at, seq) using a timing wheel backed by
// an overflow 4-ary min-heap.
//
// Why a wheel: the simulator's event population is overwhelmingly
// near-future — CPU ticks one core period out (~333 ps), cache lookups
// a few cycles out, DRAM commands and completions within tens of
// nanoseconds — while only rare events (refresh deadlines, idle-channel
// wakes, the watchdog) live further ahead. A comparison-based heap pays
// O(log n) dependent 64-byte entry moves on every operation; the wheel
// turns push into an append plus a bit-set and pop into a two-level
// bitmap probe plus a short bucket scan, both O(1) for the dominant
// traffic.
//
// Layout: wheelBuckets buckets of wheelTick = 1<<wheelShift picoseconds
// each cover a sliding window of wheelBuckets<<wheelShift (= 65.5 ns)
// starting at `base` (the bucket of the last popped entry — a lower
// bound for every live entry, since pops are monotone in at). An entry
// within the window goes to bucket (at>>wheelShift)&wheelMask; bucket
// occupancy is tracked in a 1024-bit bitmap with a 16-bit summary (one
// bit per occupancy word), so the earliest occupied bucket is found
// with two rotate-and-count-zeros probes. Anything beyond the window
// goes to the overflow heap in es. Overflow entries are never migrated:
// pop simply compares the wheel minimum against the heap top, which
// preserves the total order even when the window has slid past an
// overflow entry's timestamp.
//
// Within a bucket entries are unsorted (removal is swap-with-last) and
// the minimum is found by a linear scan: one wheelTick is finer than
// any clock period in the system, so chained ticks land in distinct
// buckets and buckets stay near-singleton.
//
// The firing order is the total order (at, seq) regardless of storage;
// FuzzScheduleOrder diffs this queue against refModel, a linear-scan
// specification of that order, at every step.
type eventQueue struct {
	w    *wheel
	nw   int    // live entries in the wheel
	base uint64 // bucket id (at>>wheelShift) of the last pop; lower bound for all live entries
	es   []entry
	// esBox is the pool box es came from, retained so release can Put
	// the same box back instead of boxing a fresh slice header (which
	// would allocate on every engine teardown).
	esBox *[]entry
}

const (
	// wheelShift sets the bucket width: 1<<6 = 64 ps.
	wheelShift   = 6
	wheelBuckets = 1024
	wheelMask    = wheelBuckets - 1
	wheelWords   = wheelBuckets / 64
)

// wheel is the bucketed storage, pooled as a unit across engines so a
// released engine's bucket arrays (the only steady-state allocation of
// the wheel) are recycled by the next NewEngine.
type wheel struct {
	summary uint16 // bit w set iff occ[w] != 0
	occ     [wheelWords]uint64
	buckets [wheelBuckets][]entry
}

var wheelPool = sync.Pool{New: func() any { return new(wheel) }}

// entrySlicePool recycles overflow-heap backing arrays across engines
// (see Engine.Release). Pooled storage holds no live references: every
// vacated slot is zeroed on pop/reset/release.
var entrySlicePool = sync.Pool{New: func() any { return new([]entry) }}

// attachPooled adopts recycled storage if the queue has none. A fresh
// box may hold a nil slice (the pool's New), so the presence of the box
// — not es being non-nil — is what marks the queue as pooled.
func (q *eventQueue) attachPooled() {
	if q.esBox == nil {
		q.esBox = entrySlicePool.Get().(*[]entry)
		q.es = (*q.esBox)[:0]
	}
	if q.w == nil {
		q.w = wheelPool.Get().(*wheel)
	}
}

func (q *eventQueue) len() int { return q.nw + len(q.es) }

// findWheelMin locates the earliest wheel entry, returning its bucket
// and index within the bucket; ok is false when the wheel is empty.
// Buckets are probed in circular order starting at base's slot: the
// sliding window [base, base+wheelBuckets) maps injectively onto the
// ring, so the first occupied bucket in that order holds the globally
// earliest timestamps, and a scan of it yields the (at, seq) minimum.
func (q *eventQueue) findWheelMin() (bkt, idx int, ok bool) {
	if q.nw == 0 {
		return 0, 0, false
	}
	w := q.w
	start := int(q.base) & wheelMask
	w0, b0 := start>>6, start&63
	if m := w.occ[w0] >> b0 << b0; m != 0 {
		// An occupied bucket in the start word at or after the start slot.
		bkt = w0<<6 + bits.TrailingZeros64(m)
	} else {
		// Rotate the summary so word w0+1 lands at bit 0; the first set
		// bit then names the next occupied word in circular order
		// (including w0 itself again, last, for its pre-start slots).
		rot := bits.RotateLeft16(w.summary, -(w0 + 1))
		wd := (w0 + 1 + bits.TrailingZeros16(rot)) & (wheelWords - 1)
		m := w.occ[wd]
		if wd == w0 {
			m &= 1<<b0 - 1 // only the slots before start remain
		}
		bkt = wd<<6 + bits.TrailingZeros64(m)
	}
	b := w.buckets[bkt]
	idx = 0
	for i := 1; i < len(b); i++ {
		if b[i].before(&b[idx]) {
			idx = i
		}
	}
	return bkt, idx, true
}

// minAt returns the timestamp of the earliest entry (queue must be
// non-empty).
func (q *eventQueue) minAt() Time {
	bkt, idx, ok := q.findWheelMin()
	if !ok {
		return q.es[0].at
	}
	at := q.w.buckets[bkt][idx].at
	if len(q.es) > 0 && q.es[0].at < at {
		return q.es[0].at
	}
	return at
}

// push inserts e: into its wheel bucket when at falls inside the
// sliding window, else into the overflow heap.
//
// base moves only at pops, never here. Re-anchoring the window at a
// push onto an empty queue looks attractive (a cold start far from t=0
// would otherwise overflow), but it is unsound: a push says nothing
// about the times of *later* pushes. The empty-at-push state occurs
// mid-callback (the engine popped the last entry and is executing it),
// and the same callback can first schedule a far wake — which a
// re-anchor would admit into the wheel — and then a nearer one, which
// underflows ab-base into the overflow heap. Popping the near entry
// drags base back and strands the far wheel entry outside the
// [base, base+wheelBuckets) window, where the circular bucket probe no
// longer agrees with time order and the far entry can fire early.
// Without re-anchoring, a far push on an empty queue simply takes the
// overflow heap, and the pop that retires it re-anchors base; only the
// handful of pushes before that pop pay the heap path.
func (q *eventQueue) push(e entry) {
	ab := uint64(e.at) >> wheelShift
	if ab-q.base >= wheelBuckets {
		q.heapPush(e)
		return
	}
	if q.w == nil {
		q.w = wheelPool.Get().(*wheel)
	}
	i := ab & wheelMask
	q.w.buckets[i] = append(q.w.buckets[i], e)
	q.w.occ[i>>6] |= 1 << (i & 63)
	q.w.summary |= 1 << (i >> 6)
	q.nw++
}

// heapPush inserts e into the overflow heap, sifting it up through its
// ancestors.
func (q *eventQueue) heapPush(e entry) {
	q.es = append(q.es, e)
	es := q.es
	i := len(es) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&es[p]) {
			break
		}
		es[i] = es[p]
		i = p
	}
	es[i] = e
}

// pop removes and returns the earliest entry across wheel and overflow.
func (q *eventQueue) pop() entry {
	bkt, idx, ok := q.findWheelMin()
	if ok {
		w := q.w
		b := w.buckets[bkt]
		e := b[idx]
		if len(q.es) == 0 || e.before(&q.es[0]) {
			n := len(b) - 1
			b[idx] = b[n]
			b[n] = entry{} // drop callback/arg references for GC
			w.buckets[bkt] = b[:n]
			if n == 0 {
				w.occ[bkt>>6] &^= 1 << (bkt & 63)
				if w.occ[bkt>>6] == 0 {
					w.summary &^= 1 << (bkt >> 6)
				}
			}
			q.nw--
			q.base = uint64(e.at) >> wheelShift
			return e
		}
	}
	return q.heapPop()
}

// heapPop removes and returns the overflow heap's top.
func (q *eventQueue) heapPop() entry {
	es := q.es
	top := es[0]
	n := len(es) - 1
	last := es[n]
	es[n] = entry{} // drop callback/arg references for GC
	q.es = es[:n]
	if n > 0 {
		q.siftDown(last)
	}
	q.base = uint64(top.at) >> wheelShift
	return top
}

// siftDown re-inserts e starting from the root hole: the smallest child
// chain moves up until e's position is found, costing one copy per
// level instead of a swap.
func (q *eventQueue) siftDown(e entry) {
	es := q.es
	n := len(es)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if es[j].before(&es[m]) {
				m = j
			}
		}
		if !es[m].before(&e) {
			break
		}
		es[i] = es[m]
		i = m
	}
	es[i] = e
}

// clearWheel empties every bucket (keeping capacity) and the bitmaps.
func (q *eventQueue) clearWheel() {
	if q.w == nil {
		return
	}
	w := q.w
	// Only occupied words need their buckets cleared; a released wheel
	// always comes back fully zeroed.
	for wd := 0; wd < wheelWords; wd++ {
		if w.occ[wd] == 0 {
			continue
		}
		for i := wd << 6; i < wd<<6+64; i++ {
			b := w.buckets[i]
			clear(b)
			w.buckets[i] = b[:0]
		}
		w.occ[wd] = 0
	}
	w.summary = 0
	q.nw = 0
}

// reset empties the queue, keeping the backing storage.
func (q *eventQueue) reset() {
	q.clearWheel()
	q.base = 0
	clear(q.es)
	q.es = q.es[:0]
}

// release empties the queue and returns the backing storage to the
// pools.
func (q *eventQueue) release() {
	q.clearWheel()
	q.base = 0
	if q.w != nil {
		wheelPool.Put(q.w)
		q.w = nil
	}
	box := q.esBox
	if box == nil {
		if q.es == nil {
			return // zero-value engine that never overflowed: nothing to pool
		}
		box = new([]entry) // zero-value engine: es grew without a pool box
	}
	full := q.es[:cap(q.es)]
	clear(full)
	*box = full[:0]
	entrySlicePool.Put(box)
	q.es, q.esBox = nil, nil
}
