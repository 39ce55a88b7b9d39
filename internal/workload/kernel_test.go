package workload

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// refSynth is the generator state as the one-instruction, float-compare
// generator kept it, and refNext is that generator's Next. Together
// they are the oracle the block kernel (Fill, and Next through it) must
// match instruction for instruction. Only the row permutation comes
// from the generator under test: the kernel reads it but does not
// build it.
type refSynth struct {
	p      Profile
	region Region
	rng    *sim.RNG

	cLocal, cStream, cStride, cHot float64

	streamPos, stridePos, hotBase, hotBytes       uint64
	phaseLeft, phaseShift, streamStep, strideStep uint64

	rowPerm []uint32
}

func newRefSynth(p Profile, region Region, seed uint64, rowPerm []uint32) *refSynth {
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
	total := p.LocalWeight + p.StreamWeight + p.StrideWeight + p.HotWeight + p.ChaseWeight
	g := &refSynth{p: p, region: region, rng: sim.NewRNG(seed ^ hashName(p.Name)), rowPerm: rowPerm}
	g.cLocal = p.LocalWeight / total
	g.cStream = g.cLocal + p.StreamWeight/total
	g.cStride = g.cStream + p.StrideWeight/total
	g.cHot = g.cStride + p.HotWeight/total
	g.hotBytes = uint64(float64(p.FootprintBytes) * p.HotFraction)
	if g.hotBytes == 0 {
		g.hotBytes = 1 << 12
	}
	g.stridePos = p.FootprintBytes / 2
	g.streamStep = p.StreamStep % p.FootprintBytes
	g.strideStep = p.StrideBytes % p.FootprintBytes
	if p.PhaseInstr > 0 {
		g.phaseShift = uint64(float64(p.FootprintBytes)*p.PhaseShiftFraction) % p.FootprintBytes
		g.phaseLeft = p.PhaseInstr - p.PhaseOffsetInstr%p.PhaseInstr
	}
	return g
}

func refNext(g *refSynth, in *Instr) {
	if g.phaseLeft > 0 {
		g.phaseLeft--
		if g.phaseLeft == 0 {
			g.hotBase += g.phaseShift
			if g.hotBase >= g.p.FootprintBytes {
				g.hotBase -= g.p.FootprintBytes
			}
			g.phaseLeft = g.p.PhaseInstr
		}
	}
	*in = Instr{}
	if g.rng.Float64() >= g.p.MemFraction {
		return
	}
	in.Mem = true
	in.Write = g.rng.Float64() < g.p.WriteFraction
	u := g.rng.Float64()
	var off uint64
	switch {
	case u < g.cLocal:
		off = g.rng.Uint64n(g.p.LocalBytes) &^ 7
	case u < g.cStream:
		off = g.streamPos
		if g.streamPos += g.streamStep; g.streamPos >= g.p.FootprintBytes {
			g.streamPos -= g.p.FootprintBytes
		}
	case u < g.cStride:
		off = g.stridePos
		if g.stridePos += g.strideStep; g.stridePos >= g.p.FootprintBytes {
			g.stridePos -= g.p.FootprintBytes
		}
	case u < g.cHot:
		off = refHotOffset(g)
	default:
		off = g.rng.Uint64n(g.p.FootprintBytes) &^ 7
		in.Dependent = !in.Write
	}
	if off >= g.p.FootprintBytes {
		off %= g.p.FootprintBytes
	}
	if g.rowPerm != nil {
		off = uint64(g.rowPerm[off/scatterRowBytes])*scatterRowBytes + off%scatterRowBytes
	}
	in.Addr = g.region.Base + off
}

func refHotOffset(g *refSynth) uint64 {
	u := g.rng.Float64()
	for i := 1.0; i < g.p.HotSkew; i++ {
		u *= g.rng.Float64()
	}
	blocks := g.hotBytes >> 6
	if blocks == 0 {
		blocks = 1
	}
	rank := uint64(u * float64(blocks))
	if rank >= blocks {
		rank = blocks - 1
	}
	off := g.hotBase + rank<<6
	if off >= g.p.FootprintBytes {
		off -= g.p.FootprintBytes
	}
	return off
}

// kernelProfiles returns every catalog profile, with phases shortened
// so a test-sized stream crosses several hot-region shifts, plus edge
// profiles for the kernel's special cases. testProfile weights all five
// mixture components.
func kernelProfiles() []Profile {
	var ps []Profile
	for _, p := range Catalog() {
		if p.PhaseInstr > 0 {
			p.PhaseInstr /= 4000
			p.PhaseOffsetInstr /= 4000
		}
		ps = append(ps, p)
	}
	skew := testProfile()
	skew.Name, skew.HotSkew = "skew2.5", 2.5
	oddLocal := testProfile()
	oddLocal.Name, oddLocal.LocalBytes = "oddlocal", 100_000 // modulo, not mask
	bigLocal := testProfile()
	bigLocal.Name, bigLocal.LocalBytes = "biglocal", 16<<20 // exceeds the footprint
	noScatter := testProfile()
	noScatter.Name, noScatter.NoScatter = "noscatter", true
	allStores := testProfile()
	allStores.Name, allStores.WriteFraction, allStores.MemFraction = "allstores", 1, 0.999
	noStores := testProfile()
	noStores.Name, noStores.WriteFraction = "nostores", 0
	return append(ps, testProfile(), skew, oddLocal, bigLocal, noScatter, allStores, noStores)
}

func TestFillMatchesReferenceNext(t *testing.T) {
	const n = 100_000
	for _, p := range kernelProfiles() {
		region := Region{Base: 3 << 30, Bytes: (p.FootprintBytes + 64<<20) &^ (scatterRowBytes - 1)}
		for _, size := range []int{1, 3, 64, 1000} {
			gen, err := NewSynthetic(p, region, 17)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			ref := newRefSynth(p, region, 17, gen.(*synth).rowPerm)
			buf := make([]Instr, size)
			var want Instr
			for i := 0; i < n; i += size {
				gen.Fill(buf)
				for j := range buf {
					refNext(ref, &want)
					if buf[j] != want {
						t.Fatalf("%s, blocks of %d: instruction %d is %+v, reference %+v",
							p.Name, size, i+j, buf[j], want)
					}
				}
			}
		}
	}
}

// TestThresholdMatchesFloatCompare checks the integer form of u < p at
// and around each threshold: for every draw k adjacent to ⌈p·2^53⌉,
// k < threshold(p) must equal the float test k/2^53 < p.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	rng := sim.NewRNG(99)
	ps := []float64{0, 1, 0.5, 0.25, 0.35, 0.15, 1.0 / 3, math.SmallestNonzeroFloat64,
		math.Nextafter(1, 0), math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 1 - 0x1p-53, 0x1p-53, 0x1p-54}
	for i := 0; i < 20_000; i++ {
		// Dyadic: j/2^b for b up to 60, so some fall between draws.
		b := 1 + rng.Intn(60)
		ps = append(ps, math.Ldexp(float64(rng.Uint64n(uint64(1)<<min(b, 53))), -b))
		// Random: a full 53-bit mantissa scaled into [0, 2^-e).
		e := rng.Intn(20)
		ps = append(ps, math.Ldexp(float64(rng.Uint64()>>11), -53-e))
	}
	for _, p := range ps {
		if p < 0 || p > 1 {
			t.Fatalf("generated p %v outside [0,1]", p)
		}
		th := threshold(p)
		for _, k := range []uint64{th - 1, th, th + 1} {
			if th == 0 && k == th-1 || k >= 1<<53 {
				continue // no 53-bit draw there
			}
			if got, want := k < th, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("p=%v (%b): draw %d below threshold %d is %v, float compare says %v", p, p, k, th, got, want)
			}
		}
	}
}

// TestNewSyntheticRejectsNonFinite covers the parameters the kernel
// converts to integers: a NaN or an infinity anywhere, or a negative
// mixture weight, must be refused, and the edges of each valid range
// accepted. A HotSkew above maxHotSkew is refused too: the hot draw
// loops once per unit of skew, and from 2^53 up that loop never ends.
func TestNewSyntheticRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Profile)
		ok     bool
	}{
		{"MemFraction NaN", func(p *Profile) { p.MemFraction = nan }, false},
		{"MemFraction +Inf", func(p *Profile) { p.MemFraction = inf }, false},
		{"MemFraction -Inf", func(p *Profile) { p.MemFraction = -inf }, false},
		{"WriteFraction NaN", func(p *Profile) { p.WriteFraction = nan }, false},
		{"WriteFraction +Inf", func(p *Profile) { p.WriteFraction = inf }, false},
		{"LocalWeight NaN", func(p *Profile) { p.LocalWeight = nan }, false},
		{"StreamWeight +Inf", func(p *Profile) { p.StreamWeight = inf }, false},
		{"StrideWeight -Inf", func(p *Profile) { p.StrideWeight = -inf }, false},
		{"HotWeight NaN", func(p *Profile) { p.HotWeight = nan }, false},
		{"ChaseWeight NaN", func(p *Profile) { p.ChaseWeight = nan }, false},
		{"negative weight", func(p *Profile) { p.StreamWeight = -0.1 }, false},
		{"weights overflow", func(p *Profile) { p.LocalWeight, p.StreamWeight = math.MaxFloat64, math.MaxFloat64 }, false},
		{"HotFraction NaN", func(p *Profile) { p.HotFraction = nan }, false},
		{"HotFraction NaN without hot weight", func(p *Profile) { p.HotWeight, p.HotFraction = 0, nan }, false},
		{"HotSkew +Inf", func(p *Profile) { p.HotSkew = inf }, false},
		{"HotSkew NaN", func(p *Profile) { p.HotSkew = nan }, false},
		{"HotSkew above the bound", func(p *Profile) { p.HotSkew = maxHotSkew + 0.5 }, false},
		{"HotSkew 2^53", func(p *Profile) { p.HotSkew = 1 << 53 }, false},
		{"HotSkew 1e300", func(p *Profile) { p.HotSkew = 1e300 }, false},
		{"PhaseShiftFraction NaN", func(p *Profile) { p.PhaseShiftFraction = nan }, false},
		{"PhaseShiftFraction negative", func(p *Profile) { p.PhaseShiftFraction = -0.125 }, false},
		{"WriteFraction 0", func(p *Profile) { p.WriteFraction = 0 }, true},
		{"WriteFraction 1", func(p *Profile) { p.WriteFraction = 1 }, true},
		{"single weight", func(p *Profile) {
			p.LocalWeight, p.StreamWeight, p.StrideWeight, p.HotWeight = 0, 0, 0, 0
		}, true},
		{"HotFraction 1", func(p *Profile) { p.HotFraction = 1 }, true},
		{"HotSkew below 1", func(p *Profile) { p.HotSkew = 0.5 }, true},
		{"HotSkew at the bound", func(p *Profile) { p.HotSkew = maxHotSkew }, true},
	}
	for _, c := range cases {
		p := testProfile()
		c.mutate(&p)
		_, err := NewSynthetic(p, testRegion(), 1)
		if (err == nil) != c.ok {
			t.Errorf("%s: NewSynthetic error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
