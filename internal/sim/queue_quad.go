package sim

import "math/bits"

// eventQueue orders entries by (at, seq) using a timing wheel backed by
// an overflow 4-ary min-heap.
//
// Why a wheel: the simulator's event population is overwhelmingly
// near-future — CPU ticks one core period out (~333 ps), cache lookups
// a few cycles out, DRAM commands and completions within tens of
// nanoseconds — while only rare events (refresh deadlines, idle-channel
// wakes, the watchdog) live further ahead. A comparison-based heap pays
// O(log n) dependent moves on every operation, and every near event
// would sift past the standing population of far wakes (about 70 events
// are pending on average, most of them refresh-deadline wakes parked
// microseconds out). The wheel turns push into a short sorted-list
// insert plus a bit-set and pop into a two-level bitmap probe plus a
// list unlink, both O(1) for the dominant traffic.
//
// Storage: every pending entry lives in one slab. push writes an
// event's fields straight into a free slot and the engine reads them
// back into locals when it fires, so no 64-byte entry value is copied
// through the queue. Freed slots go onto a LIFO free list threaded
// through the entries' next links: the slab holds only as many entries
// as were ever pending at once (a few hundred), and a callback that
// schedules a follow-up refills the slot its own event just vacated.
// Entries name each other by slab index, and slab[0] is a sentinel that
// is never handed out, so index 0 means "none" and a zeroed wheel is
// empty.
//
// Layout: wheelBuckets buckets of wheelTick = 1<<wheelShift picoseconds
// each cover a sliding window of wheelBuckets<<wheelShift (= 65.5 ns)
// starting at `base` (the bucket of the last popped entry — a lower
// bound for every live entry, since pops are monotone in at). An entry
// within the window goes to bucket (at>>wheelShift)&wheelMask, a singly
// linked list through the slab headed by heads[bucket]; bucket
// occupancy is tracked in a 1024-bit bitmap with a 16-bit summary (one
// bit per occupancy word), so the earliest occupied bucket is found
// with two rotate-and-count-zeros probes. Anything beyond the window
// goes to the overflow heap, which holds slab indices. Overflow entries
// are never migrated: pop simply compares the wheel minimum against the
// heap top, which preserves the total order even when the window has
// slid past an overflow entry's timestamp.
//
// Each bucket's list is kept in (at, seq) order, so pop takes the
// head: a push walks past the entries at or before its time (it carries
// the largest seq yet). One wheelTick is finer than any clock period in
// the system, so chained ticks land in distinct buckets and lists stay
// short (a core tick and the lookups due on the same cycle edge).
//
// The firing order is the total order (at, seq) regardless of storage;
// FuzzScheduleOrder diffs this queue against refModel, a linear-scan
// specification of that order, at every step.
type eventQueue struct {
	slab    []entry
	free    int32   // head of the free list (0 = empty)
	heap    []int32 // overflow 4-ary min-heap of slab indices
	nw      int     // live entries in the wheel
	base    uint64  // bucket id (at>>wheelShift) of the last pop; lower bound for all live entries
	summary uint16  // bit w set iff occ[w] != 0
	occ     [wheelWords]uint64
	heads   [wheelBuckets]int32 // slab index of each bucket's first entry (0 = empty)
}

const (
	// wheelShift sets the bucket width: 1<<6 = 64 ps.
	wheelShift   = 6
	wheelBuckets = 1024
	wheelMask    = wheelBuckets - 1
	wheelWords   = wheelBuckets / 64
)

func (q *eventQueue) len() int { return q.nw + len(q.heap) }

// alloc takes a slot off the free list, growing the slab when the list
// is empty.
func (q *eventQueue) alloc() int32 {
	if i := q.free; i != 0 {
		q.free = q.slab[i].next
		return i
	}
	if len(q.slab) == 0 {
		q.slab = append(q.slab, entry{}) // the sentinel
	}
	q.slab = append(q.slab, entry{})
	return int32(len(q.slab) - 1)
}

// recycle returns slot i to the free list, dropping its callback and
// argument references for the GC.
func (q *eventQueue) recycle(i int32) {
	e := &q.slab[i]
	e.fn, e.a, e.b = nil, nil, nil
	e.next, q.free = q.free, i
}

// wheelMin locates the earliest wheel entry, returning its bucket and
// slab index; i is 0 when the wheel is empty. Buckets are probed in
// circular order starting at base's slot: the sliding window
// [base, base+wheelBuckets) maps injectively onto the ring, so the first
// occupied bucket in that order holds the globally earliest timestamps,
// and its sorted list starts with their (at, seq) minimum.
func (q *eventQueue) wheelMin() (bkt int, i int32) {
	if q.nw == 0 {
		return 0, 0
	}
	start := int(q.base) & wheelMask
	w0, b0 := start>>6, start&63
	if m := q.occ[w0] >> b0 << b0; m != 0 {
		// An occupied bucket in the start word at or after the start slot.
		bkt = w0<<6 + bits.TrailingZeros64(m)
	} else {
		// Rotate the summary so word w0+1 lands at bit 0; the first set
		// bit then names the next occupied word in circular order
		// (including w0 itself again, last, for its pre-start slots).
		rot := bits.RotateLeft16(q.summary, -(w0 + 1))
		wd := (w0 + 1 + bits.TrailingZeros16(rot)) & (wheelWords - 1)
		m := q.occ[wd]
		if wd == w0 {
			m &= 1<<b0 - 1 // only the slots before start remain
		}
		bkt = wd<<6 + bits.TrailingZeros64(m)
	}
	return bkt, q.heads[bkt]
}

// heapFirst reports whether the overflow heap's top fires before wheel
// entry i (i = 0: the wheel is empty).
func (q *eventQueue) heapFirst(i int32) bool {
	return i == 0 || len(q.heap) > 0 && q.slab[q.heap[0]].before(&q.slab[i])
}

// minAt returns the timestamp of the earliest entry (queue must be
// non-empty).
func (q *eventQueue) minAt() Time {
	if _, i := q.wheelMin(); !q.heapFirst(i) {
		return q.slab[i].at
	}
	return q.slab[q.heap[0]].at
}

// push schedules fn(a, b) at (at, seq): it writes the fields straight
// into a free slot and links the slot into its wheel bucket's sorted
// list when at falls inside the sliding window, else into the overflow
// heap.
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
func (q *eventQueue) push(at Time, seq uint64, fn func(a, b any), a, b any) {
	i := q.alloc()
	e := &q.slab[i]
	e.at, e.seq, e.fn, e.a, e.b = at, seq, fn, a, b
	ab := uint64(at) >> wheelShift
	if ab-q.base >= wheelBuckets {
		q.heapPush(i)
		return
	}
	// Keep the bucket sorted: e has the largest seq yet, so it goes
	// after every entry at or before its time.
	k := ab & wheelMask
	link := &q.heads[k]
	for j := *link; j != 0 && q.slab[j].at <= at; j = *link {
		link = &q.slab[j].next
	}
	e.next, *link = *link, i
	q.occ[k>>6] |= 1 << (k & 63)
	q.summary |= 1 << (k >> 6)
	q.nw++
}

// pop unlinks the earliest entry across wheel and overflow and returns
// its slab index. The slot stays allocated until the caller recycles it.
func (q *eventQueue) pop() int32 {
	bkt, i := q.wheelMin()
	if q.heapFirst(i) {
		return q.heapPop()
	}
	next := q.slab[i].next
	q.heads[bkt] = next
	if next == 0 {
		q.occ[bkt>>6] &^= 1 << (bkt & 63)
		if q.occ[bkt>>6] == 0 {
			q.summary &^= 1 << (bkt >> 6)
		}
	}
	q.nw--
	q.base = uint64(q.slab[i].at) >> wheelShift
	return i
}

// heapPush inserts slot i into the overflow heap, sifting it up through
// its ancestors.
func (q *eventQueue) heapPush(i int32) {
	q.heap = append(q.heap, i)
	h := q.heap
	e := &q.slab[i]
	k := len(h) - 1
	for k > 0 {
		p := (k - 1) >> 2
		if !e.before(&q.slab[h[p]]) {
			break
		}
		h[k] = h[p]
		k = p
	}
	h[k] = i
}

// heapPop removes and returns the overflow heap's top.
func (q *eventQueue) heapPop() int32 {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	q.heap = h[:n]
	if n > 0 {
		q.siftDown(h[n])
	}
	q.base = uint64(q.slab[top].at) >> wheelShift
	return top
}

// siftDown re-inserts slot i starting from the root hole: the smallest
// child chain moves up until i's position is found, costing one move
// per level instead of a swap.
func (q *eventQueue) siftDown(i int32) {
	h := q.heap
	e := &q.slab[i]
	n := len(h)
	k := 0
	for {
		c := k<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := min(c+4, n)
		for j := c + 1; j < hi; j++ {
			if q.slab[h[j]].before(&q.slab[h[m]]) {
				m = j
			}
		}
		if !q.slab[h[m]].before(e) {
			break
		}
		h[k] = h[m]
		k = m
	}
	h[k] = i
}

// reset empties the queue, keeping the slab's and the heap's arrays.
func (q *eventQueue) reset() {
	clear(q.slab)
	q.slab, q.free, q.heap = q.slab[:0], 0, q.heap[:0]
	q.nw, q.base, q.summary = 0, 0, 0
	clear(q.occ[:])
	clear(q.heads[:])
}
