package exp

import (
	"fmt"
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

// profileMemo caches ProfilePass results across sessions. The pass is
// a pure function of (cfg, benchmarks) — the generators are seeded
// deterministically from them — yet it replays ProfileWindowFactor
// episodes of every benchmark, which makes it one of the most
// expensive stages of a figure run; sweeps and benchmarks rebuild
// sessions with identical workload configurations over and over. The
// key over-approximates the inputs (the full config, though only
// geometry/seed/footprint fields matter), so a collision can only mean
// a redundant recompute, never a wrong profile. Profiles are immutable
// after construction, so sharing the pointer is safe.
var profileMemo = rowProfileMemo{maxBytes: profileMemoBytes}

// profileMemoBytes bounds the bytes profileMemo retains: 64 profiles at
// config.Scaled() (1 MiB of counts each), 8 at full scale (8 MiB each).
// The key includes the seed, so a server running jobs with distinct
// seeds or geometries would otherwise keep every profile it computed.
const profileMemoBytes = 64 << 20

// rowProfileMemo is a byte-budgeted memo of row profiles. When an
// insertion would pass the budget it evicts the oldest entries first;
// a profile larger than the whole budget is returned but not kept.
type rowProfileMemo struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64 // sum of the kept profiles' Bytes
	m        map[string]*core.RowProfile
	order    []string // kept keys, oldest first
}

// ProfilePass runs a functional (timing-free) pass of every benchmark's
// generator over ProfileWindowFactor x the episode length, recording
// per-row touch counts. This is the profile the static designs
// (SAS-DRAM, CHARM) pre-assign from. Results are memoized per
// (cfg, benchmarks).
func ProfilePass(cfg config.Config, benchmarks []string) (*core.RowProfile, error) {
	return profileMemo.profile(cfg, benchmarks)
}

// profile returns the memoized profile of (cfg, benchmarks), computing
// and keeping it on a miss.
func (c *rowProfileMemo) profile(cfg config.Config, benchmarks []string) (*core.RowProfile, error) {
	key := fmt.Sprintf("%+v|%q", cfg, benchmarks)
	c.mu.Lock()
	p, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := profilePass(cfg, benchmarks)
	if err != nil {
		return nil, err
	}
	size := p.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.m[key]; ok {
		return q, nil // computed concurrently: share the kept copy
	}
	if size > c.maxBytes {
		return p, nil
	}
	for c.bytes+size > c.maxBytes {
		c.bytes -= c.m[c.order[0]].Bytes()
		delete(c.m, c.order[0])
		c.order = slices.Delete(c.order, 0, 1)
	}
	if c.m == nil {
		c.m = make(map[string]*core.RowProfile)
	}
	c.m[key] = p
	c.order = append(c.order, key)
	c.bytes += size
	return p, nil
}

// profileBlock is how many instructions the profiling pass draws from
// a generator per Fill.
const profileBlock = 256

// profilePass counts every memory op of every benchmark's window by its
// address's row bits, addr >> log2(RowBytes), masked to the row count:
// RowID(Decode(addr)) depends on exactly those bits, so the count is
// exact without decoding each access. Each touched row is decoded to
// its global row id once, at the end.
func profilePass(cfg config.Config, benchmarks []string) (*core.RowProfile, error) {
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
