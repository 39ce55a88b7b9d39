// Package fault implements deterministic, seed-driven fault injection
// for the DAS management path. The paper's hardware additions — short-
// bitline fast subarrays, migration (isolation-transistor) lanes, and
// the DRAM-resident translation table — are exactly the structures a
// real device ships with weak cells and marginal timing, so robustness
// experiments model three fault classes:
//
//   - weak fast rows: a fast-subarray physical row whose short-bitline
//     sensing margin is inadequate; the row still stores data but must
//     be sensed with conservative (slow) timing and must never be a
//     promotion target (manufacturing defect, static per device);
//   - migration failures: an in-flight row swap whose restore fails
//     verification and must be retried or abandoned (marginal isolation
//     transistor or lane coupling, probabilistic per operation);
//   - translation corruption: a tag-cache entry that fails its parity
//     check, or a fetched translation-table block that fails ECC, both
//     of which must be re-fetched through the LLC path rather than
//     allowed to misdirect a request (probabilistic per access).
//
// Every decision is driven either by a stateless hash of the fault seed
// (weak rows: the defect map is a fixed property of the device) or by a
// private sim.RNG stream (per-operation faults), so a run is exactly
// reproducible from its configuration.
package fault

import (
	"fmt"

	"repro/internal/sim"
)

// Config parameterizes the injector. The zero value (all rates zero)
// models a perfect device and injects nothing.
type Config struct {
	// Seed drives both the static weak-row map and the per-operation
	// fault stream. Zero is remapped by sim.NewRNG; callers normally
	// derive it from the workload seed so fault and workload streams
	// stay decoupled.
	Seed uint64
	// WeakRowRate is the probability that any given fast-subarray
	// physical row is weak (sensed at slow timing, fenced from
	// promotion). Static per device.
	WeakRowRate float64
	// MigFailRate is the probability that one migration operation fails
	// at completion and must be retried.
	MigFailRate float64
	// TagCorruptRate is the probability that a tag-cache hit is found
	// parity-corrupt, invalidating the entry and forcing a table
	// re-fetch through the LLC.
	TagCorruptRate float64
	// TableCorruptRate is the probability that a fetched translation-
	// table block fails ECC and is re-fetched.
	TableCorruptRate float64
}

// Validate checks that every rate is a probability.
func (c *Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"weak-row", c.WeakRowRate},
		{"migration-failure", c.MigFailRate},
		{"tag-corruption", c.TagCorruptRate},
		{"table-corruption", c.TableCorruptRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails too
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	return nil
}

// Enabled reports whether any fault class can fire.
func (c *Config) Enabled() bool {
	return c.WeakRowRate > 0 || c.MigFailRate > 0 ||
		c.TagCorruptRate > 0 || c.TableCorruptRate > 0
}

// Stats counts injected faults (decisions that returned true).
type Stats struct {
	MigFailures      uint64
	TagCorruptions   uint64
	TableCorruptions uint64
}

// Injector makes fault decisions for one simulated system. It is not
// safe for concurrent use; each System owns its own injector, matching
// the single-threaded discrete-event engine.
type Injector struct {
	cfg      Config
	weakSeed uint64
	rng      *sim.RNG

	Stats Stats
}

// NewInjector builds an injector for cfg.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	// The weak-row map gets its own derived seed so that changing a
	// per-operation rate never reshuffles which rows are weak.
	return &Injector{cfg: cfg, weakSeed: rng.Uint64(), rng: rng.Split()}, nil
}

// WeakRow reports whether physical row physRow is weak. The decision is
// a stateless hash of (seed, physRow): stable across queries and query
// orders, modeling a fixed manufacturing defect map.
func (i *Injector) WeakRow(physRow uint64) bool {
	if i.cfg.WeakRowRate <= 0 {
		return false
	}
	if i.cfg.WeakRowRate >= 1 {
		return true
	}
	x := physRow ^ i.weakSeed
	// SplitMix64 finalizer: full-avalanche mix of the row id.
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return float64(x>>11)/(1<<53) < i.cfg.WeakRowRate
}

// MigrationFails rolls one migration-failure decision.
func (i *Injector) MigrationFails() bool {
	return i.roll(i.cfg.MigFailRate, &i.Stats.MigFailures)
}

// TagEntryCorrupt rolls one tag-cache parity decision.
func (i *Injector) TagEntryCorrupt() bool {
	return i.roll(i.cfg.TagCorruptRate, &i.Stats.TagCorruptions)
}

// TableBlockCorrupt rolls one table-block ECC decision.
func (i *Injector) TableBlockCorrupt() bool {
	return i.roll(i.cfg.TableCorruptRate, &i.Stats.TableCorruptions)
}

// roll decides one per-operation fault at the given rate.
func (i *Injector) roll(rate float64, hits *uint64) bool {
	if rate <= 0 {
		return false
	}
	if rate < 1 && i.rng.Float64() >= rate {
		return false
	}
	*hits++
	return true
}
