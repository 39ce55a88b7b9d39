// Package cpu implements the ROB-occupancy out-of-order core model used
// in place of the paper's Marss86 full-system CPUs.
//
// The model captures what matters for memory-latency studies: a finite
// reorder buffer bounds memory-level parallelism, independent loads issue
// as soon as they are dispatched, dependent (pointer-chase) loads
// serialize behind older loads, stores retire through a finite store
// buffer, and the core stalls only when the ROB fills behind an
// outstanding load at its head.
package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry/reqtrace"
	"repro/internal/workload"
)

// Config parameterizes a core (Table 1: 3 GHz, 4-wide, 192-entry ROB).
type Config struct {
	ClockHz     float64
	Width       int
	ROB         int
	StoreBuffer int
}

// DefaultConfig returns the Table 1 core.
func DefaultConfig() Config {
	return Config{ClockHz: 3e9, Width: 4, ROB: 192, StoreBuffer: 32}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("cpu: clock must be positive")
	}
	if c.Width <= 0 || c.ROB <= 0 || c.StoreBuffer <= 0 {
		return fmt.Errorf("cpu: width, ROB and store buffer must be positive")
	}
	if c.ROB < c.Width {
		return fmt.Errorf("cpu: ROB (%d) smaller than width (%d)", c.ROB, c.Width)
	}
	return nil
}

// robEntry is one in-flight instruction.
type robEntry struct {
	done      bool
	load      bool
	dependent bool
	issued    bool
	addr      uint64
}

// Stats are per-core measurement-window counters.
type Stats struct {
	Retired   uint64
	MemOps    uint64
	Loads     uint64
	Stores    uint64
	StartTime sim.Time // measurement window start
	EndTime   sim.Time // when the quota was reached
	// UniquePages counts distinct 4 KiB pages touched by measured memory
	// ops (tracked in the core's page bitmap; one bitmap test per memory
	// op replaced a map lookup that showed up in figure-run profiles).
	UniquePages uint64
}

// Core is one simulated CPU.
type Core struct {
	id    int
	cfg   Config
	eng   *sim.Engine
	clock sim.Clock
	gen   workload.Generator
	l1    mem.Component

	rob      []robEntry
	loadReqs []mem.Request // per-ROB-slot load requests, Done bound once
	head     int
	count    int

	outstandingLoads int
	depQueue         []int        // ROB indexes of unissued dependent loads
	storePool        []*storeSlot // recycled store requests
	sbInFlight       int
	pending          workload.Instr // stalled instruction awaiting dispatch
	pendingValid     bool
	scratch          workload.Instr // dispatch scratch (a local would
	// escape through the Generator interface call and allocate per tick)

	retiredTotal uint64
	warmupAt     uint64 // retired count at which measurement starts
	quota        uint64 // retired count at which measurement stops
	measuring    bool
	finished     bool
	onWarmup     func(coreID int)
	onQuota      func(coreID int)

	ticker *sim.Ticker

	// pageBits is the touched-page bitmap behind Stats.UniquePages,
	// indexed by page number (Addr>>12) and grown on demand; cores
	// address a bounded contiguous region, so it stays small.
	pageBits []uint64

	// Request-trace sampling (nil rt = off, the common case). Every
	// measured demand load increments rtCount; the one whose counter hits
	// the core's deterministic offset (mod the stride) gets a span.
	rt       *reqtrace.Recorder
	rtStride uint64
	rtOffset uint64
	rtCount  uint64

	Stats Stats
}

// New builds a core fetching from gen and accessing l1.
func New(id int, cfg Config, eng *sim.Engine, gen workload.Generator, l1 mem.Component) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		id:    id,
		cfg:   cfg,
		eng:   eng,
		clock: sim.NewClockHz(cfg.ClockHz),
		gen:   gen,
		l1:    l1,
		rob:   make([]robEntry, cfg.ROB),
	}
	// One request per ROB slot with its completion bound once: a slot is
	// only reused after its previous instruction retired, which requires
	// the load to have completed, so in-flight requests never alias.
	c.loadReqs = make([]mem.Request, cfg.ROB)
	for i := range c.loadReqs {
		idx := i
		c.loadReqs[i].Done = func() { c.loadReturned(idx) }
	}
	c.ticker = sim.NewTicker(eng, c.clock, c.tick)
	return c, nil
}

// Reset rewinds the core to its just-constructed state for in-place
// reuse (exp.SystemPool), adopting gen as the instruction stream for the
// next run. The ROB array, per-slot load requests (completions bound
// once to this core), recycled store slots, and the page bitmap's
// backing are all retained, so a reset allocates nothing. The engine
// and clock are pinned; request-trace sampling detaches — re-attach per
// run. Only valid once the engine's queue has been emptied: an
// in-flight completion would otherwise fire against the rewound state.
func (c *Core) Reset(gen workload.Generator) {
	c.gen = gen
	for i := range c.rob {
		c.rob[i] = robEntry{}
	}
	for i := range c.loadReqs {
		c.loadReqs[i].Trace = nil
	}
	c.head, c.count = 0, 0
	c.outstandingLoads = 0
	c.depQueue = c.depQueue[:0]
	c.sbInFlight = 0
	c.pending = workload.Instr{}
	c.pendingValid = false
	c.retiredTotal, c.warmupAt, c.quota = 0, 0, 0
	c.measuring, c.finished = false, false
	c.onWarmup, c.onQuota = nil, nil
	c.ticker.Reset()
	for i := range c.pageBits {
		c.pageBits[i] = 0
	}
	c.rt = nil
	c.rtStride, c.rtOffset, c.rtCount = 0, 0, 0
	c.Stats = Stats{}
}

// touchPage records a measured memory op's page in the bitmap, counting
// it on first touch.
func (c *Core) touchPage(page uint64) {
	w := page >> 6
	if w >= uint64(len(c.pageBits)) {
		grown := make([]uint64, w+w/2+1)
		copy(grown, c.pageBits)
		c.pageBits = grown
	}
	if bit := uint64(1) << (page & 63); c.pageBits[w]&bit == 0 {
		c.pageBits[w] |= bit
		c.Stats.UniquePages++
	}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Clock returns the core clock.
func (c *Core) Clock() sim.Clock { return c.clock }

// Start begins execution. warmup retired instructions are excluded from
// statistics (onWarmup fires when the boundary is crossed); once quota
// instructions retire, onQuota fires and the core keeps running
// (generating interference) without accumulating stats. Both callbacks
// may be nil. A quota not exceeding the warm-up is a measurement-window
// misconfiguration and is returned as an error before any event is
// scheduled.
func (c *Core) Start(warmup, quota uint64, onWarmup, onQuota func(coreID int)) error {
	if quota <= warmup {
		return fmt.Errorf("cpu: quota (%d) must exceed warmup (%d)", quota, warmup)
	}
	c.warmupAt = warmup
	c.quota = quota
	c.onWarmup = onWarmup
	c.onQuota = onQuota
	c.measuring = warmup == 0
	if c.measuring {
		c.Stats.StartTime = c.eng.Now()
		if c.onWarmup != nil {
			c.onWarmup(c.id)
		}
	}
	c.ticker.Start()
	return nil
}

// Outstanding reports in-flight memory operations (issued loads plus
// undrained stores); used by the livelock watchdog.
func (c *Core) Outstanding() int { return c.outstandingLoads + c.sbInFlight }

// Finished reports whether the core has reached its quota.
func (c *Core) Finished() bool { return c.finished }

// RetiredTotal reports lifetime retired instructions (including warm-up).
func (c *Core) RetiredTotal() uint64 { return c.retiredTotal }

// IPC returns instructions per cycle over the measurement window; zero if
// the window has not closed.
func (c *Core) IPC() float64 {
	if !c.finished || c.Stats.EndTime <= c.Stats.StartTime {
		return 0
	}
	cycles := float64(c.Stats.EndTime-c.Stats.StartTime) / float64(c.clock.Period())
	return float64(c.Stats.Retired) / cycles
}

// AttachReqTrace enables 1-in-N request-trace sampling on this core's
// measured demand loads. The sampling offset is derived from the
// recorder's seed and the core id, so which loads are sampled is a pure
// function of configuration — sampling never perturbs the simulation.
func (c *Core) AttachReqTrace(rec *reqtrace.Recorder) {
	if rec == nil {
		return
	}
	c.rt = rec
	c.rtStride = rec.SampleN()
	c.rtOffset = rec.OffsetFor(c.id)
}

// wake restarts the ticker after a completion event.
func (c *Core) wake() { c.ticker.Start() }

// tick advances one core cycle: issue dependent loads, retire, dispatch.
func (c *Core) tick() {
	progress := false

	// A dependent load issues only when no older load is outstanding.
	if len(c.depQueue) > 0 && c.outstandingLoads == 0 {
		idx := c.depQueue[0]
		c.depQueue = c.depQueue[1:]
		c.issueLoad(idx)
		progress = true
	}

	// Retire up to Width completed instructions from the ROB head.
	for r := 0; r < c.cfg.Width && c.count > 0 && c.rob[c.head].done; r++ {
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.count--
		c.retire()
		progress = true
	}

	// Dispatch up to Width new instructions into the ROB.
	in := &c.scratch
	for d := 0; d < c.cfg.Width && c.count < len(c.rob); d++ {
		if c.pendingValid {
			*in = c.pending
		} else {
			c.gen.Next(in)
		}
		if in.Mem && in.Write && c.sbInFlight >= c.cfg.StoreBuffer {
			// Store buffer full: hold the instruction and stall dispatch
			// (dropping it would silently mutate the workload stream).
			c.pending = *in
			c.pendingValid = true
			break
		}
		c.pendingValid = false
		idx := c.head + c.count
		if idx >= len(c.rob) {
			idx -= len(c.rob)
		}
		c.count++
		e := &c.rob[idx]
		*e = robEntry{}
		progress = true
		if !in.Mem {
			e.done = true
			continue
		}
		if c.measuring {
			c.Stats.MemOps++
			c.touchPage(in.Addr >> 12)
		}
		if in.Write {
			if c.measuring {
				c.Stats.Stores++
			}
			// Stores retire immediately through the store buffer and
			// drain to the cache asynchronously.
			e.done = true
			c.sbInFlight++
			s := c.newStore()
			s.req.Addr = in.Addr
			s.req.Issued = c.eng.Now()
			c.l1.Access(&s.req)
			continue
		}
		if c.measuring {
			c.Stats.Loads++
		}
		e.load = true
		e.addr = in.Addr
		if in.Dependent && c.outstandingLoads > 0 {
			e.dependent = true
			c.depQueue = append(c.depQueue, idx)
		} else {
			c.issueLoad(idx)
		}
	}

	// Sleep while fully blocked on memory; completions call wake.
	if !progress && (c.outstandingLoads > 0 || c.sbInFlight >= c.cfg.StoreBuffer) {
		c.ticker.Stop()
	}
}

// issueLoad sends the load at ROB index idx into the hierarchy, reusing
// the slot's preallocated request.
func (c *Core) issueLoad(idx int) {
	c.rob[idx].issued = true
	c.outstandingLoads++
	req := &c.loadReqs[idx]
	req.Addr = c.rob[idx].addr
	req.Core = c.id
	req.Issued = c.eng.Now()
	if c.rt != nil && c.measuring {
		if c.rtCount%c.rtStride == c.rtOffset {
			req.Trace = c.rt.Begin(c.id, req.Issued)
		}
		c.rtCount++
	}
	c.l1.Access(req)
}

// loadReturned marks the load complete and wakes the core.
func (c *Core) loadReturned(idx int) {
	if req := &c.loadReqs[idx]; req.Trace != nil {
		c.rt.Finish(req.Trace, c.eng.Now())
		req.Trace = nil
	}
	c.rob[idx].done = true
	c.outstandingLoads--
	c.wake()
}

// storeSlot is a recyclable store request. Its completion callback is
// bound once at creation; draining returns the slot to the core's pool,
// whose size is bounded by the store buffer (at most StoreBuffer stores
// are ever in flight).
type storeSlot struct {
	c   *Core
	req mem.Request
}

// drained frees the store-buffer slot and recycles the request. The
// cache hierarchy holds no reference to the request after Done fires,
// so the slot is safe to reuse on a later dispatch.
func (s *storeSlot) drained() {
	c := s.c
	c.storePool = append(c.storePool, s)
	c.sbInFlight--
	c.wake()
}

// newStore returns a store request ready for dispatch, recycled from
// the pool when possible.
func (c *Core) newStore() *storeSlot {
	if n := len(c.storePool); n > 0 {
		s := c.storePool[n-1]
		c.storePool = c.storePool[:n-1]
		return s
	}
	s := &storeSlot{c: c}
	s.req.Write = true
	s.req.Core = c.id
	s.req.Done = s.drained
	return s
}

// retire accounts one retired instruction and drives the measurement
// window boundaries.
func (c *Core) retire() {
	c.retiredTotal++
	if c.measuring {
		c.Stats.Retired++
	}
	if !c.measuring && !c.finished && c.retiredTotal == c.warmupAt {
		c.measuring = true
		c.Stats.StartTime = c.eng.Now()
		if c.onWarmup != nil {
			c.onWarmup(c.id)
		}
	}
	if c.measuring && !c.finished && c.retiredTotal == c.quota {
		c.finished = true
		c.measuring = false
		c.Stats.EndTime = c.eng.Now()
		if c.onQuota != nil {
			c.onQuota(c.id)
		}
	}
}
