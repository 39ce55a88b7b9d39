// Package cache implements set-associative write-back caches with MSHRs,
// used to build the three-level hierarchy of Table 1 (private L1 and L2,
// shared LLC). The hierarchy is non-inclusive and has no coherence
// protocol: workloads in this reproduction never share blocks between
// cores (each core owns a disjoint address range), matching the
// multi-programmed — not multi-threaded — evaluation of the paper.
package cache

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Config sizes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	BlockSize int
	// Latency is the lookup latency of this level (charged on entry).
	// Per-level lookup latencies add up along the walk, so the defaults
	// elsewhere choose increments that reproduce Table 1's cumulative
	// hit latencies (4 / 12 / 20 CPU cycles).
	Latency sim.Time
	// MSHRs bounds outstanding misses; further misses queue behind them.
	MSHRs int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockSize <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: sizes must be positive", c.Name)
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache %s: block size must be a power of two, got %d", c.Name, c.BlockSize)
	}
	lines := c.SizeBytes / c.BlockSize
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count must be a power of two, got %d", c.Name, sets)
	}
	if c.Latency < 0 {
		return fmt.Errorf("cache %s: negative latency", c.Name)
	}
	return nil
}

// AddressLimit returns the first address a valid configuration cannot
// hold. A line keeps 32 tag bits above the set index and the block
// offset, so a level covers 2^32 x sets x block size bytes, that is
// 2^32 times the bytes of one way; higher addresses would alias lower
// ones. config.Config.Validate rejects any memory this does not cover.
func (c *Config) AddressLimit() uint64 {
	way := uint64(c.SizeBytes / c.Assoc)
	if way >= 1<<32 {
		return math.MaxUint64
	}
	return way << 32
}

// line is one cache line's metadata (the simulator carries no data) in
// 8 bytes: the tag, which is the block address above the set-index
// bits, and a stamp that packs the line's LRU tick above its dirty bit.
// lruTick is bumped before every use, so a valid line's stamp is at
// least 2 and stamp 0 marks an invalid way. Within a set ticks are
// unique, so comparing stamps orders a set's lines by recency and the
// dirty bit never decides a comparison.
type line struct {
	tag   uint32
	stamp uint32 // lruTick<<1 | dirty; 0 = invalid
}

const (
	dirty   = 1         // the stamp's dirty bit
	maxTick = 1<<31 - 1 // the largest tick a stamp holds
)

// mshr tracks one outstanding fill and the requests waiting on it.
// Slots are recycled through the cache's free list with their fill
// request's completion bound once, so a steady-state miss allocates
// nothing: the pool high-water mark is the configured MSHR count (plus
// unbounded-by-config Meta fetches, in practice a handful).
type mshr struct {
	c         *Cache
	blockAddr uint64
	waiters   []*mem.Request
	fillReq   mem.Request
}

// filled completes the fill this slot tracks.
func (m *mshr) filled() { m.c.fill(m) }

// Stats counts cache activity. Misses are demand misses (writeback and
// coalesced accesses are tracked separately).
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Coalesced  uint64 // misses merged into an existing MSHR
	Writebacks uint64 // dirty evictions pushed to the next level
	WBForward  uint64 // writeback misses forwarded without allocation
	// PerCoreMisses is indexed by Request.Core when non-negative.
	PerCoreMisses []uint64
	// MetaMisses counts translation-table (Meta) misses.
	MetaMisses uint64
}

// Cache is one write-back, write-allocate cache level.
type Cache struct {
	cfg     Config
	eng     *sim.Engine
	lower   mem.Component
	lines   []line // sets × assoc, way w of set s at s*assoc + w
	assoc   int
	setMask uint64
	blkBits uint
	tagBits uint // blkBits + log2(sets): the tag is addr >> tagBits
	lruTick uint32

	// mshrs holds the live fills, found by a scan of their block
	// addresses: at most cfg.MSHRs plus the Meta fetches that bypass
	// the cap.
	mshrs    []*mshr
	mshrPool []*mshr        // recycled MSHR slots
	pending  []*mem.Request // waiting for a free MSHR
	wbFree   []*wbSlot      // recycled writeback requests

	// tel is the live instrument set (nil = telemetry off, the default;
	// see AttachTelemetry).
	tel *cacheTelemetry

	Stats Stats
}

// New builds a cache in front of lower. cores sizes the per-core miss
// counters (0 disables them).
func New(cfg Config, eng *sim.Engine, lower mem.Component, cores int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: nil lower level", cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.BlockSize
	nsets := lines / cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		eng:     eng,
		lower:   lower,
		lines:   make([]line, lines),
		assoc:   cfg.Assoc,
		setMask: uint64(nsets - 1),
		mshrs:   make([]*mshr, 0, cfg.MSHRs),
	}
	for b := cfg.BlockSize; b > 1; b >>= 1 {
		c.blkBits++
	}
	c.tagBits = c.blkBits
	for n := nsets; n > 1; n >>= 1 {
		c.tagBits++
	}
	if cores > 0 {
		c.Stats.PerCoreMisses = make([]uint64, cores)
	}
	return c, nil
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) blockAddr(addr uint64) uint64 { return addr >> c.blkBits << c.blkBits }

// set returns the ways of block's set.
func (c *Cache) set(block uint64) []line {
	i := int((block>>c.blkBits)&c.setMask) * c.assoc
	return c.lines[i : i+c.assoc]
}

// find returns block's resident line, or nil.
func (c *Cache) find(block uint64) *line {
	set, tag := c.set(block), uint32(block>>c.tagBits)
	for i := range set {
		if set[i].tag == tag && set[i].stamp != 0 {
			return &set[i]
		}
	}
	return nil
}

// roomForTick renormalizes when the clock holds the largest tick a
// stamp can, so that the next tick fits. Every tick site calls it
// first. Renormalization is invisible to victim choice whenever it
// runs, so the check can sit outside touch, which then inlines into
// the hit paths.
func (c *Cache) roomForTick() {
	if c.lruTick == maxTick {
		c.renormalize()
	}
}

// renormalize rewrites each set's valid stamps to their recency ranks
// 1..k, keeping the dirty bits, and restarts the clock at assoc, above
// every rank. Victim choice only compares stamps within a set, so every
// later hit, victim and writeback is the one the unbounded clock would
// have produced.
func (c *Cache) renormalize() {
	ranked := make([]uint32, c.assoc) // a set's new stamps
	for s := 0; s < len(c.lines); s += c.assoc {
		set := c.lines[s : s+c.assoc]
		clear(ranked)
		for i := range set {
			if set[i].stamp == 0 {
				continue
			}
			rank := uint32(1)
			for j := range set {
				if set[j].stamp != 0 && set[j].stamp < set[i].stamp {
					rank++
				}
			}
			ranked[i] = rank<<1 | set[i].stamp&dirty
		}
		for i, r := range ranked {
			set[i].stamp = r
		}
	}
	c.lruTick = uint32(c.assoc)
}

// touch makes ln the most recently used line of its set, dirtying it
// for a write. The caller makes room on the clock first (roomForTick).
func (c *Cache) touch(ln *line, write bool) {
	c.lruTick++
	d := ln.stamp & dirty
	if write {
		d = dirty
	}
	ln.stamp = c.lruTick<<1 | d
}

// mshrFor returns the live MSHR filling block, or nil.
func (c *Cache) mshrFor(block uint64) *mshr {
	for _, m := range c.mshrs {
		if m.blockAddr == block {
			return m
		}
	}
	return nil
}

// lookupEvent is the shared trampoline Access schedules through; with
// the (cache, request) pair carried as bound arguments, entering a
// level allocates nothing (a fresh closure here escaped once per access
// per level and dominated the simulator's allocation profile).
func lookupEvent(a, b any) { a.(*Cache).lookup(b.(*mem.Request)) }

// Access enters a request into this level after the lookup latency.
func (c *Cache) Access(req *mem.Request) {
	c.eng.ScheduleCall(c.cfg.Latency, lookupEvent, c, req)
}

// lookup performs the tag match after the access latency has elapsed.
func (c *Cache) lookup(req *mem.Request) {
	c.Stats.Accesses++
	block := c.blockAddr(req.Addr)
	if ln := c.find(block); ln != nil {
		c.Stats.Hits++
		c.roomForTick()
		c.touch(ln, req.Write)
		req.Complete()
		return
	}
	// Miss.
	if req.Writeback {
		// Dirty eviction from above that misses here: forward it down
		// without allocating. Fetch-on-writeback would waste bandwidth
		// on a block the upper level just evicted.
		c.Stats.WBForward++
		c.lower.Access(req)
		return
	}
	c.Stats.Misses++
	if req.Core >= 0 && req.Core < len(c.Stats.PerCoreMisses) {
		c.Stats.PerCoreMisses[req.Core]++
	}
	if req.Meta {
		c.Stats.MetaMisses++
	}
	if m := c.mshrFor(block); m != nil {
		c.Stats.Coalesced++
		if req.Trace != nil {
			req.Trace.StampMerge(c.eng.Now())
		}
		m.waiters = append(m.waiters, req)
		return
	}
	// Meta (translation-table) fetches bypass the MSHR cap: demand misses
	// holding all MSHRs may themselves be waiting on this very fetch, so
	// queueing it would deadlock the hierarchy. Hardware gives the
	// controller's table fetches their own buffer for the same reason.
	if len(c.mshrs) >= c.cfg.MSHRs && !req.Meta {
		c.pending = append(c.pending, req)
		return
	}
	c.allocateMSHR(block, req)
}

// allocateMSHR starts a fill for block with req as first waiter,
// recycling a pooled slot when one is free.
func (c *Cache) allocateMSHR(block uint64, req *mem.Request) {
	var m *mshr
	if n := len(c.mshrPool); n > 0 {
		m = c.mshrPool[n-1]
		c.mshrPool = c.mshrPool[:n-1]
	} else {
		m = &mshr{c: c}
		m.fillReq.Done = m.filled
	}
	m.blockAddr = block
	m.waiters = append(m.waiters[:0], req)
	c.mshrs = append(c.mshrs, m)
	m.fillReq.Addr = block
	m.fillReq.Core = req.Core
	m.fillReq.Meta = req.Meta
	m.fillReq.Issued = c.eng.Now()
	// The fill inherits the leader's span so the lower levels keep
	// stamping the same record; cleared again in fill before the slot is
	// recycled.
	m.fillReq.Trace = req.Trace
	if c.tel != nil {
		c.tel.mshrOcc.Observe(uint64(len(c.mshrs)))
	}
	c.lower.Access(&m.fillReq)
}

// fill installs the block and releases waiters when the lower level
// returns data, then recycles the slot (nothing below holds a
// reference to the fill request once its Done has fired).
func (c *Cache) fill(m *mshr) {
	if c.tel != nil {
		c.tel.fillLat.Observe(uint64((c.eng.Now() - m.fillReq.Issued) / sim.Nanosecond))
	}
	for i, x := range c.mshrs {
		if x == m {
			last := len(c.mshrs) - 1
			c.mshrs[i] = c.mshrs[last]
			c.mshrs[last] = nil
			c.mshrs = c.mshrs[:last]
			break
		}
	}
	c.install(m.blockAddr, m.waiters)
	for _, w := range m.waiters {
		w.Complete()
	}
	c.drainPending()
	for i := range m.waiters {
		m.waiters[i] = nil
	}
	m.fillReq.Trace = nil
	c.mshrPool = append(c.mshrPool, m)
}

// wbSlot is one pooled writeback request. Its Done — bound once, like
// an MSHR's fill completion — is the recycle hook: a writeback is
// finished with everywhere the moment it completes (a lower-level hit
// stores and completes it; a forward all the way down is acked at the
// controller's posted-write enqueue), and every completion path runs on
// this cache's goroutine, so the freelist needs no lock.
type wbSlot struct {
	r      mem.Request
	c      *Cache
	doneFn func()
}

// recycle returns the slot to its cache's freelist.
func (s *wbSlot) recycle() {
	s.r.Trace = nil
	s.c.wbFree = append(s.c.wbFree, s)
}

// wbSlot pops a recycled writeback slot or mints one.
func (c *Cache) wbSlot() *wbSlot {
	if n := len(c.wbFree); n > 0 {
		s := c.wbFree[n-1]
		c.wbFree[n-1] = nil
		c.wbFree = c.wbFree[:n-1]
		return s
	}
	s := &wbSlot{c: c}
	s.doneFn = s.recycle
	return s
}

// install places block into its set, writing back the dirty victim.
// The victim is the first way with the smallest stamp: the first
// invalid way (stamp 0) if any, else the least recently used.
func (c *Cache) install(block uint64, waiters []*mem.Request) {
	set := c.set(block)
	v := &set[0]
	for i := 1; i < len(set); i++ {
		if set[i].stamp < v.stamp {
			v = &set[i]
		}
	}
	if v.stamp&dirty != 0 {
		c.Stats.Writebacks++
		wb := c.wbSlot()
		wb.r = mem.Request{
			// The victim shares block's set: its tag above those bits.
			Addr:      uint64(v.tag)<<c.tagBits | block&(c.setMask<<c.blkBits),
			Write:     true,
			Writeback: true,
			Core:      -1,
			Issued:    c.eng.Now(),
			Done:      wb.doneFn,
		}
		c.lower.Access(&wb.r)
	}
	c.roomForTick()
	c.lruTick++
	stamp := c.lruTick << 1
	for _, w := range waiters {
		if w.Write {
			stamp |= dirty
		}
	}
	*v = line{tag: uint32(block >> c.tagBits), stamp: stamp}
}

// drainPending retries queued misses now that an MSHR freed up.
func (c *Cache) drainPending() {
	for len(c.pending) > 0 && len(c.mshrs) < c.cfg.MSHRs {
		req := c.pending[0]
		copy(c.pending, c.pending[1:])
		c.pending = c.pending[:len(c.pending)-1]
		block := c.blockAddr(req.Addr)
		if m := c.mshrFor(block); m != nil {
			c.Stats.Coalesced++
			if req.Trace != nil {
				req.Trace.StampMerge(c.eng.Now())
			}
			m.waiters = append(m.waiters, req)
			continue
		}
		// Re-check the tags: an earlier fill may have brought the block in
		// while this request sat in the pending queue.
		if ln := c.find(block); ln != nil {
			c.roomForTick()
			c.touch(ln, req.Write)
			req.Complete()
			continue
		}
		c.allocateMSHR(block, req)
	}
}

// Reset rewinds the cache to its just-constructed state for in-place
// reuse (exp.SystemPool): all lines invalidate, the LRU clock rewinds,
// outstanding MSHRs and queued misses drop, and statistics zero. The
// line array, the MSHR slices, and recycled MSHR slots (whose fill
// completions bind this *Cache once) are all retained, so a reset
// allocates nothing. Telemetry detaches; re-attach per run.
func (c *Cache) Reset() {
	clear(c.lines)
	c.lruTick = 0
	for _, m := range c.mshrs {
		clear(m.waiters)
		m.waiters = m.waiters[:0]
		m.fillReq.Trace = nil
		m.fillReq.Done = m.filled
		c.mshrPool = append(c.mshrPool, m)
	}
	clear(c.mshrs)
	c.mshrs = c.mshrs[:0]
	clear(c.pending)
	c.pending = c.pending[:0]
	c.tel = nil
	c.ResetStats()
}

// Contains reports whether block-aligned addr is resident (test helper and
// used by property tests; not on the timing path).
func (c *Cache) Contains(addr uint64) bool { return c.find(c.blockAddr(addr)) != nil }

// OutstandingMisses reports the number of live MSHRs (diagnostics).
func (c *Cache) OutstandingMisses() int { return len(c.mshrs) }

// ResetStats zeroes counters (warm-up boundary).
func (c *Cache) ResetStats() {
	perCore := c.Stats.PerCoreMisses
	c.Stats = Stats{}
	if perCore != nil {
		for i := range perCore {
			perCore[i] = 0
		}
		c.Stats.PerCoreMisses = perCore
	}
}
