// Package workload produces deterministic synthetic instruction streams
// that stand in for the SPEC CPU2006 memory-bound subset of Table 2.
//
// Each benchmark is modeled as a mixture of access-pattern components —
// sequential streaming, fixed-stride walking, a skewed hot region, and
// dependent pointer chasing — parameterized to approximate the published
// MPKI, footprint, write ratio, and temporal-locality behaviour of the
// real benchmark. Hot regions drift across the footprint in phases,
// which is the program behaviour that separates dynamic (DAS) from
// static profiled (SAS/CHARM) management in the paper.
package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Instr is one instruction of a synthetic stream.
type Instr struct {
	// Mem marks a load or store; non-memory instructions only occupy
	// pipeline width.
	Mem bool
	// Write marks stores.
	Write bool
	// Dependent marks loads on a serial dependence chain (pointer
	// chasing): the core must wait for all older loads before issuing.
	Dependent bool
	// Addr is the physical byte address of a memory instruction.
	Addr uint64
}

// Generator yields an unbounded deterministic instruction stream.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next writes the next instruction into in.
	Next(in *Instr)
	// Fill writes the next len(buf) instructions into buf in stream
	// order: exactly what len(buf) calls of Next would write.
	Fill(buf []Instr)
}

// Region is the physical address range a generator may touch.
type Region struct {
	Base  uint64
	Bytes uint64
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Bytes
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name string
	// MemFraction of instructions access memory.
	MemFraction float64
	// WriteFraction of memory accesses are stores.
	WriteFraction float64
	// FootprintBytes is the nominal data footprint.
	FootprintBytes uint64

	// Mixture weights over memory accesses (normalized internally).
	LocalWeight  float64 // cache-resident working set (stack, hot heap top)
	StreamWeight float64 // sequential small-step walk
	StrideWeight float64 // fixed large-stride walk
	HotWeight    float64 // skewed accesses into a hot region
	ChaseWeight  float64 // dependent uniform-random accesses

	// LocalBytes is the resident working-set size (default 128 KiB; it
	// should fit in the private caches so the component produces almost
	// no DRAM traffic and only dilutes MPKI, as the non-miss bulk of a
	// real program does).
	LocalBytes uint64
	// StreamStep is the byte step of the streaming walk (default 8).
	StreamStep uint64
	// StrideBytes is the stride of the strided walk (default 320).
	StrideBytes uint64
	// HotFraction is the hot region size as a fraction of footprint.
	HotFraction float64
	// HotSkew is the power-law exponent of hot accesses (>=1; larger
	// values concentrate accesses on fewer rows).
	HotSkew float64
	// PhaseInstr is the phase length in instructions; every phase the
	// hot region re-centers. Zero means a stationary hot region.
	PhaseInstr uint64
	// PhaseShiftFraction is how far (as a fraction of the footprint)
	// the hot region moves each phase.
	PhaseShiftFraction float64
	// PhaseOffsetInstr advances the phase clock, positioning the stream
	// mid-phase-schedule at instruction zero. Placing a phase boundary
	// just inside the measurement warm-up reproduces the paper's
	// observation that a sampled execution point lives in a phase the
	// lifetime profile underrepresents (Section 7.1).
	PhaseOffsetInstr uint64
	// NoScatter disables the row-granular physical scatter (below);
	// useful in unit tests that reason about exact addresses.
	NoScatter bool
}

// scatterRowBytes is the granularity of the physical scatter permutation:
// one DRAM row. An operating system allocates physical pages roughly
// randomly, so a program's virtually-contiguous working set is scattered
// across the physical row space; without this, synthetic hot regions
// would pile into a handful of migration groups in a way no real system
// exhibits.
const scatterRowBytes = 8 << 10

// Validate checks the profile is well-formed. Every float parameter
// must be finite, and every range test is written so that NaN fails it
// (NaN compares false with everything): the generator turns the
// fractions and weights into integer thresholds, and converting a NaN
// or an infinity to an integer has no defined result.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MemFraction", p.MemFraction}, {"WriteFraction", p.WriteFraction},
		{"LocalWeight", p.LocalWeight}, {"StreamWeight", p.StreamWeight},
		{"StrideWeight", p.StrideWeight}, {"HotWeight", p.HotWeight},
		{"ChaseWeight", p.ChaseWeight}, {"HotFraction", p.HotFraction},
		{"HotSkew", p.HotSkew}, {"PhaseShiftFraction", p.PhaseShiftFraction},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload %s: %s must be finite, got %v", p.Name, f.name, f.v)
		}
	}
	if !(p.MemFraction > 0 && p.MemFraction < 1) {
		return fmt.Errorf("workload %s: MemFraction must be in (0,1), got %v", p.Name, p.MemFraction)
	}
	if !(p.WriteFraction >= 0 && p.WriteFraction <= 1) {
		return fmt.Errorf("workload %s: WriteFraction must be in [0,1]", p.Name)
	}
	if p.FootprintBytes < 1<<20 {
		return fmt.Errorf("workload %s: footprint below 1 MiB", p.Name)
	}
	if p.LocalWeight < 0 || p.StreamWeight < 0 || p.StrideWeight < 0 || p.HotWeight < 0 || p.ChaseWeight < 0 {
		return fmt.Errorf("workload %s: mixture weights must be non-negative", p.Name)
	}
	total := p.LocalWeight + p.StreamWeight + p.StrideWeight + p.HotWeight + p.ChaseWeight
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("workload %s: mixture weights must have a positive finite sum", p.Name)
	}
	if p.HotWeight > 0 && !(p.HotFraction > 0 && p.HotFraction <= 1) {
		return fmt.Errorf("workload %s: HotFraction must be in (0,1] when HotWeight > 0", p.Name)
	}
	if p.PhaseShiftFraction < 0 {
		return fmt.Errorf("workload %s: PhaseShiftFraction must be non-negative", p.Name)
	}
	return nil
}

// threshold converts the test u < p on a uniform draw u = k/2^53 (how
// sim.RNG.Float64 forms its result from a 53-bit integer k) into the
// exact integer test k < threshold(p). k/2^53 and p*2^53 are both exact
// in float64, so u < p holds exactly when k < p*2^53, that is when
// k < ⌈p*2^53⌉.
func threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// synth is the mixture-model generator.
type synth struct {
	p      Profile
	region Region
	rng    sim.RNG

	// Integer thresholds on a 53-bit draw (see threshold): a memory op
	// when k < tMem, a store when k < tWrite, and the component chosen
	// by the cumulative mixture thresholds tLocal <= tStream <= tStride
	// <= tHot (the chase walk above tHot).
	tMem, tWrite                   uint64
	tLocal, tStream, tStride, tHot uint64

	// localMask is LocalBytes-1 when LocalBytes is a power of two (the
	// local draw is then a mask, not a 64-bit modulo), else 0.
	localMask uint64
	hotBlocks uint64 // 64-byte blocks in the hot region, at least 1

	streamPos uint64
	stridePos uint64
	hotBase   uint64 // offset of hot region within footprint

	// Division-free stepping state. The kernel runs once per simulated
	// instruction, so the per-call modulo reductions are precomputed:
	// every walker position stays < FootprintBytes by conditional
	// subtraction (steps are pre-reduced mod footprint), and the phase
	// schedule is a countdown instead of a divisibility test.
	phaseLeft  uint64 // instructions until the next hot-region shift (0 = no phases)
	phaseShift uint64 // hot-region shift per phase, pre-reduced mod footprint
	streamStep uint64 // StreamStep mod footprint
	strideStep uint64 // StrideBytes mod footprint

	// rowPerm maps virtual row index -> physical row index within the
	// footprint (the OS page-allocation scatter).
	rowPerm []uint32
}

// NewSynthetic builds a generator for profile p over region, seeded
// deterministically.
func NewSynthetic(p Profile, region Region, seed uint64) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if region.Bytes < p.FootprintBytes {
		return nil, fmt.Errorf("workload %s: region %d B smaller than footprint %d B",
			p.Name, region.Bytes, p.FootprintBytes)
	}
	if p.LocalBytes == 0 {
		p.LocalBytes = 128 << 10
	}
	if p.StreamStep == 0 {
		p.StreamStep = 8
	}
	if p.StrideBytes == 0 {
		p.StrideBytes = 320
	}
	if p.HotSkew < 1 {
		p.HotSkew = 1
	}
	g := &synth{
		p:      p,
		region: region,
		rng:    *sim.NewRNG(seed ^ hashName(p.Name)),
		tMem:   threshold(p.MemFraction),
		tWrite: threshold(p.WriteFraction),
	}
	// The cumulative mixture bounds are summed in float64, in this
	// order, and only then converted, so each integer test decides
	// exactly as the float test u < bound does.
	total := p.LocalWeight + p.StreamWeight + p.StrideWeight + p.HotWeight + p.ChaseWeight
	cLocal := p.LocalWeight / total
	cStream := cLocal + p.StreamWeight/total
	cStride := cStream + p.StrideWeight/total
	cHot := cStride + p.HotWeight/total
	g.tLocal, g.tStream, g.tStride, g.tHot = threshold(cLocal), threshold(cStream), threshold(cStride), threshold(cHot)
	if p.LocalBytes&(p.LocalBytes-1) == 0 {
		g.localMask = p.LocalBytes - 1
	}
	hotBytes := uint64(float64(p.FootprintBytes) * p.HotFraction)
	if hotBytes == 0 {
		hotBytes = 1 << 12
	}
	g.hotBlocks = max(hotBytes>>6, 1)
	// Start the stream and stride walkers at distinct offsets so the
	// components do not trivially collide.
	g.stridePos = p.FootprintBytes / 2
	g.streamStep = p.StreamStep % p.FootprintBytes
	g.strideStep = p.StrideBytes % p.FootprintBytes
	if p.PhaseInstr > 0 {
		g.phaseShift = uint64(float64(p.FootprintBytes)*p.PhaseShiftFraction) % p.FootprintBytes
		// The k-th generated instruction shifts the phase when
		// (k + PhaseOffsetInstr) ≡ 0 (mod PhaseInstr); the first such
		// k ≥ 1 is PhaseInstr - PhaseOffsetInstr%PhaseInstr.
		g.phaseLeft = p.PhaseInstr - p.PhaseOffsetInstr%p.PhaseInstr
	}
	if !p.NoScatter {
		// Scatter the footprint's rows over the core's whole region, the
		// way OS page allocation spreads a program's working set over all
		// of physical memory. Migration groups partition the physical row
		// space, so without the spread a workload could only ever use the
		// fast slots of the groups its contiguous footprint overlaps.
		spanRows := region.Bytes / scatterRowBytes
		fpRows := (p.FootprintBytes + scatterRowBytes - 1) / scatterRowBytes
		if spanRows > uint64(int(^uint32(0))) {
			return nil, fmt.Errorf("workload %s: region too large for scatter permutation", p.Name)
		}
		perm := make([]uint32, spanRows)
		for i := range perm {
			perm[i] = uint32(i)
		}
		shuffle := sim.NewRNG(seed ^ 0xC0FFEE ^ hashName(p.Name))
		// Partial Fisher-Yates: only the first fpRows entries are used.
		for i := uint64(0); i < fpRows && i < spanRows-1; i++ {
			j := i + uint64(shuffle.Intn(int(spanRows-i)))
			perm[i], perm[j] = perm[j], perm[i]
		}
		// Keep a copy of the used prefix: the slice itself would pin
		// the whole region-sized array for the generator's lifetime.
		g.rowPerm = append([]uint32(nil), perm[:fpRows]...)
	}
	return g, nil
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Name implements Generator.
func (g *synth) Name() string { return g.p.Name }

// Next implements Generator as a one-instruction Fill.
func (g *synth) Next(in *Instr) {
	var one [1]Instr
	g.Fill(one[:])
	*in = one[0]
}

// Fill implements Generator and is the generator's only kernel. The RNG
// state, the phase countdown and the walker positions stay in locals
// for the whole block and are stored back once at its end.
func (g *synth) Fill(buf []Instr) {
	rng := g.rng
	phaseLeft, hotBase := g.phaseLeft, g.hotBase
	streamPos, stridePos := g.streamPos, g.stridePos
	fp := g.p.FootprintBytes
	for i := range buf {
		if phaseLeft > 0 {
			phaseLeft--
			if phaseLeft == 0 {
				if hotBase += g.phaseShift; hotBase >= fp {
					hotBase -= fp
				}
				phaseLeft = g.p.PhaseInstr
			}
		}
		if rng.Uint64()>>11 >= g.tMem {
			buf[i] = Instr{}
			continue
		}
		in := Instr{Mem: true, Write: rng.Uint64()>>11 < g.tWrite}
		var off uint64
		switch k := rng.Uint64() >> 11; {
		case k < g.tLocal:
			// Resident working set at the bottom of the footprint.
			if off = rng.Uint64(); g.localMask != 0 {
				off &= g.localMask
			} else {
				off %= g.p.LocalBytes
			}
			off &^= 7
		case k < g.tStream:
			off = streamPos
			if streamPos += g.streamStep; streamPos >= fp {
				streamPos -= fp
			}
		case k < g.tStride:
			off = stridePos
			if stridePos += g.strideStep; stridePos >= fp {
				stridePos -= fp
			}
		case k < g.tHot:
			// Power-law-skewed offset within the drifting hot region:
			// rank = N * u^skew concentrates mass near rank 0, spread
			// over the region at 64-byte granularity. u multiplies, so
			// this draw stays in floating point.
			u := rng.Float64()
			for s := 1.0; s < g.p.HotSkew; s++ {
				u *= rng.Float64()
			}
			rank := min(uint64(u*float64(g.hotBlocks)), g.hotBlocks-1)
			// hotBase < footprint and rank<<6 < hot region <=
			// footprint, so one conditional subtraction reduces it.
			if off = hotBase + rank<<6; off >= fp {
				off -= fp
			}
		default:
			// Pointer chase: uniform random, serially dependent, 8-byte
			// aligned like a pointer load.
			off = (rng.Uint64() % fp) &^ 7
			in.Dependent = !in.Write
		}
		// Every component already reduces its offset below the
		// footprint; only an oversized LocalBytes can exceed it, and
		// then the (cold) reduction matches an unconditional modulo.
		if off >= fp {
			off %= fp
		}
		in.Addr = g.region.Base + g.scatter(off)
		buf[i] = in
	}
	g.rng = rng
	g.phaseLeft, g.hotBase = phaseLeft, hotBase
	g.streamPos, g.stridePos = streamPos, stridePos
}

// scatter applies the physical row permutation to a footprint offset,
// yielding an offset within the whole region.
func (g *synth) scatter(off uint64) uint64 {
	if g.rowPerm == nil {
		return off
	}
	row := off / scatterRowBytes
	return uint64(g.rowPerm[row])*scatterRowBytes + off%scatterRowBytes
}
