package exp

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
)

// poolKey is the machine shape: everything a System.Reset cannot
// change, derived from config.Config by the same methods Build
// constructs the components from. Two configs with equal keys differ
// only in sweepable knobs (timing sets, migration latency, management
// parameters, page policy, measurement protocol, seeds, fault
// injection), all of which Reset re-applies; Reset rejects any other
// difference. Design is part of the key because the manager's design is
// structural (dynamic designs carry layout/tag-cache/filter state that
// static ones never allocate). Cache levels carry their level names
// only, never a formatted per-core name, so computing a key allocates
// nothing.
type poolKey struct {
	design      core.Design
	cores       int
	geom        dram.Geometry
	cpu         cpu.Config
	l1, l2, llc cache.Config
}

func keyFor(cfg *config.Config, design core.Design) poolKey {
	return poolKey{
		design: design,
		cores:  cfg.Cores,
		geom:   cfg.Geometry(),
		cpu:    cfg.CPUConfig(),
		l1:     cfg.L1Config(),
		l2:     cfg.L2Config(),
		llc:    cfg.LLCConfig(),
	}
}

// footprintBytes is a coarse standing-memory estimate of one machine,
// used only to enforce the pool's byte budget (never for simulation).
// It prices what a machine keeps alive after it has run: cache line
// metadata, DRAM bank state, each core's ROB, request slots, workload
// row permutation and page bitmap, the dynamic designs' translation
// groups and tag cache, and the engine's event storage, plus slack for
// controller queues, maps and freelists. The tag cache is sized by
// cfg, not by the shape key (Reset reallocates it when the size
// changes), so a parked machine is priced from the config it last ran.
// The per-core and per-row prices are averages over runs of a few
// hundred thousand instructions per core (translation groups are
// allocated as rows are first touched);
// TestFootprintEstimateMatchesRetainedHeap holds the total within 25%
// of the measured live heap.
func footprintBytes(cfg *config.Config, design core.Design) int64 {
	const (
		lineBytes  = 8         // cache.line: 32-bit tag and LRU stamp
		bankBytes  = 256       // dram.Bank counters + rank share
		robBytes   = 96        // robEntry + preallocated load request
		coreBytes  = 160 << 10 // workload row permutation and page bitmap
		rowBytes   = 6         // dynamic designs: ~240 B per touched 32-row group
		tagBytes   = 8         // dynamic designs: a 16-byte tagLine per modeled 2-byte entry
		eventBytes = 32 << 10  // engine: wheel heads and a slab of a few hundred events
		slack      = 192 << 10
	)
	k := keyFor(cfg, design)
	cacheLines := int64(k.llc.SizeBytes)/int64(k.geom.BlockSize) +
		int64(k.cores)*(int64(k.l1.SizeBytes)+int64(k.l2.SizeBytes))/int64(k.geom.BlockSize)
	n := cacheLines*lineBytes + int64(k.geom.TotalBanks())*bankBytes +
		int64(k.cores)*(int64(k.cpu.ROB)*robBytes+coreBytes) + eventBytes + slack
	if design.Dynamic() {
		n += int64(k.geom.TotalRows())*rowBytes + int64(cfg.TagCacheKB<<10)*tagBytes
	}
	return n
}

// PoolStats is a snapshot of a SystemPool's lifetime activity.
type PoolStats struct {
	// Hits counts checkouts served by a pooled machine; Misses counts
	// checkouts that fell through to a fresh Build.
	Hits, Misses uint64
	// Drops counts checkins discarded because the byte budget was full.
	Drops uint64
	// Machines is the number of systems currently parked in the pool and
	// CurrentBytes their estimated standing memory; HighWaterBytes is the
	// lifetime maximum of CurrentBytes.
	Machines       int
	CurrentBytes   int64
	HighWaterBytes int64
}

// HitRate returns Hits / (Hits + Misses), 0 before any checkout.
func (s PoolStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// SystemPool recycles fully built simulation machines across runs,
// keyed by machine shape (poolKey). A sweep that runs hundreds of
// points over the same shape pays the allocation cost of one machine
// per concurrent run instead of one per point: checkouts rewind the
// machine in place (System.Reset) with byte-identical results to a
// fresh Build.
//
// The pool is bounded by an estimated byte budget: checkins beyond it
// are dropped (their engine storage still recycles through the sim
// pools), so a burst of differently shaped jobs cannot pin unbounded
// memory. All methods are safe for concurrent use.
type SystemPool struct {
	mu       sync.Mutex
	items    map[poolKey][]*System
	maxBytes int64
	stats    PoolStats
}

// DefaultPoolBytes is the default pool budget: roomy enough for a few
// concurrent benchmark-scale machines, small against any host that can
// run the simulator at all.
const DefaultPoolBytes = 256 << 20

// DefaultPool is the process-wide machine pool Sessions use unless
// overridden. It is package-level deliberately: sessions are routinely
// created per figure (or per benchmark iteration), so a per-session
// pool would never see a second checkout of the same shape.
var DefaultPool = NewSystemPool(DefaultPoolBytes)

// NewSystemPool builds a pool bounded by maxBytes of estimated standing
// memory (0 or negative = unbounded).
func NewSystemPool(maxBytes int64) *SystemPool {
	return &SystemPool{items: make(map[poolKey][]*System), maxBytes: maxBytes}
}

// Get checks out a machine matching cfg/design's shape, or returns nil
// (a miss: the caller builds fresh and checks the new machine in after
// use). A non-nil machine still holds its previous run's state — rewind
// it with System.Reset before running.
func (p *SystemPool) Get(cfg *config.Config, design core.Design) *System {
	k := keyFor(cfg, design)
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.items[k]
	if len(q) == 0 {
		p.stats.Misses++
		return nil
	}
	sys := q[len(q)-1]
	q[len(q)-1] = nil
	p.items[k] = q[:len(q)-1]
	p.stats.Hits++
	p.stats.Machines--
	p.stats.CurrentBytes -= footprintBytes(&sys.Cfg, sys.Design)
	return sys
}

// Put checks a machine back in for reuse. Over-budget checkins are
// dropped: the machine's engine storage is released to the sim pools
// and the system left for the collector. Never Put a machine whose run
// failed mid-flight unless it has been Reset — the pool stores
// machines dirty and relies on the next checkout's Reset, which
// requires intact wiring.
func (p *SystemPool) Put(sys *System) {
	if sys == nil {
		return
	}
	k := keyFor(&sys.Cfg, sys.Design)
	fb := footprintBytes(&sys.Cfg, sys.Design)
	p.mu.Lock()
	if p.maxBytes > 0 && p.stats.CurrentBytes+fb > p.maxBytes {
		p.stats.Drops++
		p.mu.Unlock()
		sys.free()
		return
	}
	sys.pool = p
	p.items[k] = append(p.items[k], sys)
	p.stats.Machines++
	p.stats.CurrentBytes += fb
	if p.stats.CurrentBytes > p.stats.HighWaterBytes {
		p.stats.HighWaterBytes = p.stats.CurrentBytes
	}
	p.mu.Unlock()
}

// Drain releases every pooled machine (graceful-shutdown path). The
// pool remains usable; lifetime statistics are preserved.
func (p *SystemPool) Drain() {
	p.mu.Lock()
	var all []*System
	for k, q := range p.items {
		all = append(all, q...)
		delete(p.items, k)
	}
	p.stats.Machines = 0
	p.stats.CurrentBytes = 0
	p.mu.Unlock()
	for _, sys := range all {
		sys.free()
	}
}

// Stats snapshots the pool's lifetime activity.
func (p *SystemPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
