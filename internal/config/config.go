// Package config holds the JSON-serializable system configuration that
// assembles a full simulation (Table 1 of the paper), plus the
// episode-scaled variant the experiment harness uses by default.
package config

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mc"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Config is the complete system description.
type Config struct {
	// Cores and pipeline (Table 1: 3 GHz, 4-wide, 192-entry ROB).
	Cores       int     `json:"cores"`
	CPUGHz      float64 `json:"cpu_ghz"`
	Width       int     `json:"width"`
	ROB         int     `json:"rob"`
	StoreBuffer int     `json:"store_buffer"`

	// Cache hierarchy. Latencies are per-level lookup latencies in CPU
	// cycles; they accumulate along the walk, so 4/8/8 reproduces
	// Table 1's cumulative 4/12/20.
	L1KB       int `json:"l1_kb"`
	L1Assoc    int `json:"l1_assoc"`
	L1Latency  int `json:"l1_latency"`
	L1MSHRs    int `json:"l1_mshrs"`
	L2KB       int `json:"l2_kb"`
	L2Assoc    int `json:"l2_assoc"`
	L2Latency  int `json:"l2_latency"`
	L2MSHRs    int `json:"l2_mshrs"`
	LLCKB      int `json:"llc_kb"`
	LLCAssoc   int `json:"llc_assoc"`
	LLCLatency int `json:"llc_latency"`
	LLCMSHRs   int `json:"llc_mshrs"`
	BlockSize  int `json:"block_size"`

	// Memory controller.
	WindowSize        int     `json:"window_size"`
	ClosedPage        bool    `json:"closed_page"`
	WriteHigh         int     `json:"write_high"`
	WriteLow          int     `json:"write_low"`
	StarvationLimitNS float64 `json:"starvation_limit_ns"`

	// DRAM organization.
	Channels    int `json:"channels"`
	Ranks       int `json:"ranks"`
	Banks       int `json:"banks"`
	RowsPerBank int `json:"rows_per_bank"`
	Columns     int `json:"columns"`

	// Asymmetric-subarray management (Table 1 bottom).
	MigrationLatencyNS float64 `json:"migration_latency_ns"`
	FastDenom          int     `json:"fast_denom"`
	GroupSize          int     `json:"group_size"`
	TagCacheKB         int     `json:"tag_cache_kb"`
	TagCacheAssoc      int     `json:"tag_cache_assoc"`
	FilterThreshold    int     `json:"filter_threshold"`
	FilterCounters     int     `json:"filter_counters"`
	Replacement        string  `json:"replacement"`

	// Measurement protocol (Section 6).
	InstrPerCore uint64  `json:"instr_per_core"`
	WarmupFrac   float64 `json:"warmup_frac"`
	Seed         uint64  `json:"seed"`

	// Fault injection and robustness (all rates zero = perfect device;
	// see DESIGN.md "Fault model and degradation").
	FaultSeed        uint64  `json:"fault_seed"`
	WeakRowRate      float64 `json:"fault_weak_row_rate"`
	MigFailRate      float64 `json:"fault_mig_fail_rate"`
	MigRetries       int     `json:"fault_mig_retries"`
	TagCorruptRate   float64 `json:"fault_tag_corrupt_rate"`
	TableCorruptRate float64 `json:"fault_table_corrupt_rate"`
	// CheckInvariants enables the per-swap runtime invariant checker.
	CheckInvariants bool `json:"check_invariants"`
}

// Default returns the full-scale Table 1 system: 8 GB of DDR3-1600 on
// two channels, 4 MB shared LLC, 1/8 fast level.
func Default() Config {
	return Config{
		Cores: 1, CPUGHz: 3, Width: 4, ROB: 192, StoreBuffer: 32,
		L1KB: 64, L1Assoc: 8, L1Latency: 4, L1MSHRs: 16,
		L2KB: 256, L2Assoc: 8, L2Latency: 8, L2MSHRs: 24,
		LLCKB: 4096, LLCAssoc: 8, LLCLatency: 8, LLCMSHRs: 48,
		BlockSize:  64,
		WindowSize: 32, WriteHigh: 32, WriteLow: 8, StarvationLimitNS: 1000,
		Channels: 2, Ranks: 2, Banks: 8, RowsPerBank: 32768, Columns: 128,
		MigrationLatencyNS: 146.25,
		FastDenom:          8, GroupSize: 32,
		TagCacheKB: 128, TagCacheAssoc: 8,
		FilterThreshold: 1, FilterCounters: 1024,
		Replacement:  "lru",
		InstrPerCore: 10_000_000, WarmupFrac: 0.2, Seed: 42,
		MigRetries: 3, CheckInvariants: true,
	}
}

// Scaled returns the episode-scaled configuration the experiments use: a
// 1 GB memory (1/8 of Table 1) so that 10M-instruction episodes exercise
// the same footprint-to-fast-level pressure as the paper's
// 100M-instruction samples. The tag cache scales with memory so the
// Figure 9a sweep keeps its meaning (see DESIGN.md).
func Scaled() Config {
	c := Default()
	c.RowsPerBank = 4096 // 1 GB total
	c.TagCacheKB = 16    // 128 KB x (1 GB / 8 GB)
	return c
}

// MemoryScale returns this configuration's memory capacity relative to
// the paper's 8 GB system; workload footprints are scaled by it.
func (c *Config) MemoryScale() float64 {
	return float64(c.Geometry().Capacity()) / float64(8<<30)
}

// Validate checks cross-field consistency, and runs the checks of every
// component configuration it derives, so a config it accepts builds
// every design.
func (c *Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("config: cores must be positive")
	}
	if c.InstrPerCore == 0 {
		return fmt.Errorf("config: instr_per_core must be positive")
	}
	if !(c.WarmupFrac >= 0 && c.WarmupFrac < 1) { // NaN fails too
		return fmt.Errorf("config: warmup_frac must be in [0,1)")
	}
	fc := c.FaultConfig()
	if err := fc.Validate(); err != nil {
		return err
	}
	if err := c.Geometry().Validate(); err != nil {
		return err
	}
	// The cache levels' latencies are whole picoseconds of CPU cycles,
	// and a clock needs a period of at least one (NaN fails this too).
	if !(c.CPUGHz > 0 && c.CPUGHz <= 1000) {
		return fmt.Errorf("config: cpu_ghz must be in (0, 1000], got %v", c.CPUGHz)
	}
	if err := c.validateCaches(); err != nil {
		return err
	}
	ctl := c.ControllerConfig()
	if err := ctl.Validate(); err != nil {
		return err
	}
	cc := c.CPUConfig()
	if err := cc.Validate(); err != nil {
		return err
	}
	// The dynamic designs use every management knob, and their layout
	// must tile each bank.
	mgr, err := c.ManagerConfig(core.DAS)
	if err != nil {
		return err
	}
	if err := mgr.Validate(); err != nil {
		return err
	}
	if _, err := core.NewLayout(c.Geometry(), c.GroupSize, c.FastDenom); err != nil {
		return err
	}
	if !(c.MigrationLatencyNS >= 0) || math.IsInf(c.MigrationLatencyNS, 1) {
		return fmt.Errorf("config: migration_latency_ns must be finite and non-negative, got %v", c.MigrationLatencyNS)
	}
	return nil
}

// validateCaches checks each cache level's organization and that its
// 32-bit line tags reach every byte of the memory.
func (c *Config) validateCaches() error {
	capacity := c.Geometry().Capacity()
	if capacity == 0 { // the product of powers of two overflowed
		return fmt.Errorf("config: memory capacity overflows 64 bits")
	}
	for _, lc := range []cache.Config{c.L1Config(), c.L2Config(), c.LLCConfig()} {
		if err := lc.Validate(); err != nil {
			return err
		}
		if limit := lc.AddressLimit(); capacity > limit {
			return fmt.Errorf("config: %s's 32-bit tags address %d B, less than the %d B memory", lc.Name, limit, capacity)
		}
	}
	return nil
}

// FaultConfig returns the fault-injection configuration. A zero
// FaultSeed derives the fault stream from the workload seed (offset so
// the two streams differ even when both defaults are in play).
func (c *Config) FaultConfig() fault.Config {
	seed := c.FaultSeed
	if seed == 0 {
		seed = c.Seed ^ 0xFA017FA017FA0175
	}
	return fault.Config{
		Seed:             seed,
		WeakRowRate:      c.WeakRowRate,
		MigFailRate:      c.MigFailRate,
		TagCorruptRate:   c.TagCorruptRate,
		TableCorruptRate: c.TableCorruptRate,
	}
}

// Geometry returns the DRAM organization.
func (c *Config) Geometry() dram.Geometry {
	return dram.Geometry{
		Channels: c.Channels, Ranks: c.Ranks, Banks: c.Banks,
		Rows: c.RowsPerBank, Columns: c.Columns, BlockSize: c.BlockSize,
	}
}

// DRAMConfig returns the device configuration for a design: CHARM gets
// the column-optimized fast set; DAS-FM gets zero migration latency.
func (c *Config) DRAMConfig(design core.Design) dram.Config {
	fast := timing.DDR31600Fast()
	if design == core.CHARM {
		fast = timing.DDR31600CHARMFast()
	}
	mig := sim.FromNS(c.MigrationLatencyNS)
	if design == core.DASFM {
		mig = 0
	}
	return dram.Config{
		Geometry:         c.Geometry(),
		Slow:             timing.DDR31600Slow(),
		Fast:             fast,
		MigrationLatency: mig,
	}
}

// ControllerConfig returns the memory controller configuration.
func (c *Config) ControllerConfig() mc.Config {
	return mc.Config{
		WindowSize: c.WindowSize, WriteHigh: c.WriteHigh, WriteLow: c.WriteLow,
		StarvationLimit: sim.FromNS(c.StarvationLimitNS),
		ClosedPage:      c.ClosedPage,
	}
}

// CPUConfig returns the configuration of each core's pipeline.
func (c *Config) CPUConfig() cpu.Config {
	return cpu.Config{
		ClockHz: c.CPUGHz * 1e9, Width: c.Width,
		ROB: c.ROB, StoreBuffer: c.StoreBuffer,
	}
}

// L1Config returns the organization of a core's private L1, named for
// the level (Build names each core's copy for its core).
func (c *Config) L1Config() cache.Config {
	return c.cacheConfig("L1", c.L1KB, c.L1Assoc, c.L1Latency, c.L1MSHRs)
}

// L2Config returns the organization of a core's private L2, named like
// L1Config's.
func (c *Config) L2Config() cache.Config {
	return c.cacheConfig("L2", c.L2KB, c.L2Assoc, c.L2Latency, c.L2MSHRs)
}

// LLCConfig returns the organization of the shared last-level cache.
func (c *Config) LLCConfig() cache.Config {
	return c.cacheConfig("LLC", c.LLCKB, c.LLCAssoc, c.LLCLatency, c.LLCMSHRs)
}

// cacheConfig converts one level's size in KB and lookup latency in CPU
// cycles into a cache configuration.
func (c *Config) cacheConfig(name string, kb, assoc, latency, mshrs int) cache.Config {
	cpuPeriod := sim.NewClockHz(c.CPUGHz * 1e9).Period()
	return cache.Config{
		Name: name, SizeBytes: kb << 10, Assoc: assoc,
		BlockSize: c.BlockSize, Latency: sim.Time(latency) * cpuPeriod,
		MSHRs: mshrs,
	}
}

// ManagerConfig returns the DAS management configuration for a design.
func (c *Config) ManagerConfig(design core.Design) (core.Config, error) {
	repl, err := core.ParseReplacement(c.Replacement)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Design:          design,
		FastDenom:       c.FastDenom,
		GroupSize:       c.GroupSize,
		TagCacheBytes:   c.TagCacheKB << 10,
		TagCacheAssoc:   c.TagCacheAssoc,
		FilterThreshold: c.FilterThreshold,
		FilterCounters:  c.FilterCounters,
		Replacement:     repl,
		Seed:            c.Seed,
		MigRetries:      c.MigRetries,
	}, nil
}

// Parse decodes a JSON configuration layered over Default() and
// validates it. Arbitrary input never panics (FuzzConfigJSON holds it
// to that): malformed JSON and inconsistent values both come back as
// errors.
func Parse(data []byte) (Config, error) {
	c := Default()
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("config: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Load reads a JSON configuration file.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	c, err := Parse(data)
	if err != nil {
		return Config{}, fmt.Errorf("%w (%s)", err, path)
	}
	return c, nil
}

// Save writes the configuration as indented JSON.
func (c *Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
