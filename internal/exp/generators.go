package exp

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// CoreSpan returns the row-aligned address span owned by each core:
// usable memory (capacity minus the translation-table reserve) divided
// evenly among cores.
func CoreSpan(cfg config.Config) uint64 {
	geom := cfg.Geometry()
	usable := geom.Capacity() - core.TableReserveBytes(geom)
	span := usable / uint64(cfg.Cores)
	return span / geom.RowBytes() * geom.RowBytes()
}

// MakeGenerator builds the deterministic synthetic generator for core
// idx running benchmark name under cfg. The construction is shared by
// Build and the profiling pass so both see identical streams:
//
//   - footprints scale with simulated memory capacity relative to the
//     paper's 8 GB system;
//   - phase lengths (expressed per 100M instructions in the catalog)
//     scale with the episode length so every run sees the same number of
//     phase changes as a full-length sample;
//   - the seed depends on the session seed and the core index only, so
//     all designs observe the same instruction stream.
func MakeGenerator(cfg config.Config, name string, idx int) (workload.Generator, error) {
	profl, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	span := CoreSpan(cfg)
	fp := uint64(float64(profl.FootprintBytes) * cfg.MemoryScale())
	if min := uint64(2 << 20); fp < min {
		fp = min
	}
	if fp > span {
		fp = span
	}
	profl.FootprintBytes = fp
	if profl.PhaseInstr > 0 {
		scale := float64(cfg.InstrPerCore) / 100e6
		profl.PhaseInstr = uint64(float64(profl.PhaseInstr) * scale)
		if profl.PhaseInstr == 0 {
			profl.PhaseInstr = 1
		}
		profl.PhaseOffsetInstr = uint64(float64(profl.PhaseOffsetInstr) * scale)
	}
	return workload.NewSynthetic(profl, workload.Region{
		Base: uint64(idx) * span, Bytes: span,
	}, cfg.Seed+uint64(idx)*1000003)
}

// ProfileWindowFactor is how much longer the offline profiling pass is
// than the measured episode. The paper profiles whole program executions
// and then evaluates 100M-instruction samples; the factor reproduces the
// resulting lifetime-hot versus episode-hot mismatch that separates
// static from dynamic management.
const ProfileWindowFactor = 19

// statics is the process-wide memo of the static designs' fast-row
// assignments, keyed by a run's config (Cores set to one per benchmark)
// and benchmark set, of which the assignment is a pure function. Its
// profile pass replays ProfileWindowFactor episodes of every benchmark,
// one of the most expensive stages of a figure run, and sweeps,
// benchmarks and dasserve jobs rebuild sessions with identical configs
// over and over. The whole config over-approximates the pass's inputs,
// so it can only cost a redundant pass, never a wrong assignment.
var statics = staticMemo{maxBytes: staticMemoBytes}

// staticMemoBytes bounds the bytes statics retains: 512 assignments at
// config.Scaled() (16 KiB each), 64 at full scale (128 KiB). The key
// includes the seed, so a server running jobs with distinct seeds would
// otherwise keep every assignment it built.
const staticMemoBytes = 8 << 20

// staticKey is an assignment's identity: a run's config and set.
type staticKey struct {
	cfg config.Config
	set string
}

// staticEntry is one key's assignment, built once; shared, so immutable.
type staticEntry struct {
	once sync.Once
	a    *core.StaticAssignment
	err  error
}

// staticMemo is a byte-budgeted memo of static assignments. A key's
// pass runs once however many runs ask at once. A new assignment evicts
// the oldest to fit; one over the whole budget, or a failed pass, is
// returned to its callers but not kept.
type staticMemo struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64 // sum of the kept assignments' sizes
	m        map[staticKey]*staticEntry
	order    []staticKey // kept keys, oldest first
}

// assignmentBytes is what a static assignment of cfg's memory retains:
// one bit per row.
func assignmentBytes(cfg *config.Config) int64 {
	return int64((cfg.Geometry().TotalRows()+63)/64) * 8
}

// assignment returns the fast-row assignment of benchmarks under cfg,
// building it on a miss.
func (c *staticMemo) assignment(cfg config.Config, benchmarks []string) (*core.StaticAssignment, error) {
	key := staticKey{cfg, wkey(benchmarks)}
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		if c.m == nil {
			c.m = make(map[staticKey]*staticEntry)
		}
		e = &staticEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		prof, err := ProfilePass(cfg, benchmarks)
		if err == nil {
			e.a = core.BuildStaticAssignment(prof, cfg.Geometry(), cfg.FastDenom)
		}
		e.err = err
		size := assignmentBytes(&cfg)
		c.mu.Lock()
		defer c.mu.Unlock()
		if err != nil || size > c.maxBytes {
			delete(c.m, key)
			return
		}
		for c.bytes+size > c.maxBytes {
			c.bytes -= assignmentBytes(&c.order[0].cfg)
			delete(c.m, c.order[0])
			c.order = slices.Delete(c.order, 0, 1)
		}
		c.order = append(c.order, key)
		c.bytes += size
	})
	return e.a, e.err
}

// profileBlock is how many instructions the profiling pass draws from
// a generator per Fill.
const profileBlock = 256

// ProfilePass runs a functional (timing-free) pass of every benchmark's
// generator over ProfileWindowFactor x the episode length, recording
// per-row touch counts: the profile the static designs (SAS-DRAM,
// CHARM) pre-assign from. It is not memoized; statics keeps the
// assignments built from it. It counts every memory op of every benchmark's window by its
// address's row bits, addr >> log2(RowBytes), masked to the row count:
// RowID(Decode(addr)) depends on exactly those bits, so the count is
// exact without decoding each access. Each touched row is decoded to
// its global row id once, at the end.
func ProfilePass(cfg config.Config, benchmarks []string) (*core.RowProfile, error) {
	geom := cfg.Geometry()
	shift := uint(bits.TrailingZeros64(geom.RowBytes()))
	mask := geom.TotalRows() - 1
	byAddrRow := make([]uint64, geom.TotalRows())
	var block [profileBlock]workload.Instr
	for i, name := range benchmarks {
		gen, err := MakeGenerator(cfg, name, i)
		if err != nil {
			return nil, err
		}
		for left := cfg.InstrPerCore * ProfileWindowFactor; left > 0; {
			buf := block[:min(left, profileBlock)]
			gen.Fill(buf)
			for j := range buf {
				// A non-memory instruction adds 0 rather than
				// branching: which instructions touch memory is a coin
				// flip that no branch predictor learns.
				var n uint64
				if buf[j].Mem {
					n = 1
				}
				byAddrRow[(buf[j].Addr>>shift)&mask] += n
			}
			left -= uint64(len(buf))
		}
	}
	counts := make([]uint64, geom.TotalRows())
	for r, n := range byAddrRow {
		if n != 0 {
			counts[geom.RowID(geom.Decode(uint64(r)<<shift))] = n
		}
	}
	return core.RowProfileFromCounts(counts), nil
}
