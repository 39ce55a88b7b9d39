package config

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestDefaultsValidate(t *testing.T) {
	for _, c := range []Config{Default(), Scaled()} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if c.Geometry().Capacity() != 8<<30 {
		t.Fatalf("capacity %d, Table 1 says 8 GB", c.Geometry().Capacity())
	}
	if c.LLCKB != 4096 || c.L1KB != 64 || c.L2KB != 256 {
		t.Fatal("cache sizes differ from Table 1")
	}
	// Cumulative hit latencies 4/12/20 cycles.
	if c.L1Latency != 4 || c.L1Latency+c.L2Latency != 12 || c.L1Latency+c.L2Latency+c.LLCLatency != 20 {
		t.Fatal("cache latency increments do not sum to Table 1's 4/12/20")
	}
	if c.WindowSize != 32 {
		t.Fatal("request queue differs from Table 1")
	}
	if c.MigrationLatencyNS != 146.25 || c.FastDenom != 8 || c.GroupSize != 32 {
		t.Fatal("asymmetric-DRAM parameters differ from Table 1")
	}
	if c.WarmupFrac != 0.2 {
		t.Fatal("warm-up fraction differs from Section 6")
	}
}

func TestScaledKeepsRatios(t *testing.T) {
	c := Scaled()
	if got := c.MemoryScale(); got != 0.125 {
		t.Fatalf("scale %v, want 1/8", got)
	}
	if c.Geometry().Capacity() != 1<<30 {
		t.Fatal("scaled capacity not 1 GB")
	}
	// The tag cache scales with memory so Fig 9a keeps its meaning.
	if c.TagCacheKB != 16 {
		t.Fatalf("scaled tag cache %d KB, want 16", c.TagCacheKB)
	}
}

func TestDRAMConfigPerDesign(t *testing.T) {
	c := Scaled()
	das := c.DRAMConfig(core.DAS)
	if das.MigrationLatency != sim.FromNS(146.25) {
		t.Fatal("DAS migration latency wrong")
	}
	fm := c.DRAMConfig(core.DASFM)
	if fm.MigrationLatency != 0 {
		t.Fatal("DAS-FM must have zero migration latency")
	}
	charm := c.DRAMConfig(core.CHARM)
	if charm.Fast.CL >= das.Fast.CL {
		t.Fatal("CHARM fast set must reduce CL")
	}
	std := c.DRAMConfig(core.Standard)
	if std.Fast.TRCD != das.Fast.TRCD {
		t.Fatal("fast set should be consistent outside CHARM")
	}
}

func TestManagerConfigMapping(t *testing.T) {
	c := Scaled()
	c.Replacement = "random"
	mc, err := c.ManagerConfig(core.DAS)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Replacement != core.ReplRandom || mc.TagCacheBytes != c.TagCacheKB<<10 {
		t.Fatalf("manager config mapping wrong: %+v", mc)
	}
	c.Replacement = "bogus"
	if _, err := c.ManagerConfig(core.DAS); err == nil {
		t.Fatal("bogus replacement accepted")
	}
}

func TestValidationRejects(t *testing.T) {
	c := Default()
	c.Cores = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
	c = Default()
	c.WarmupFrac = 1.0
	if err := c.Validate(); err == nil {
		t.Fatal("warmup 1.0 accepted")
	}
	c = Default()
	c.InstrPerCore = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero instructions accepted")
	}
	c = Default()
	c.RowsPerBank = 1000 // not a power of two
	if err := c.Validate(); err == nil {
		t.Fatal("bad geometry accepted")
	}
	for _, ns := range []float64{math.Inf(1), math.NaN()} {
		c = Default()
		c.MigrationLatencyNS = ns
		if err := c.Validate(); err == nil {
			t.Fatalf("migration latency %v accepted", ns)
		}
	}
}

// TestValidateRejectsUntaggedMemory checks the cache tag bound: a
// level's 32-bit tags reach 2^32 times the bytes of one way, and a
// memory larger than that is refused with the level's name. The
// geometries grow the memory through the row count; 2^20 rows per bank
// make a 256 GiB memory, 2^38 B. The remaining cases check that a bad
// field is refused by name.
func TestValidateRejectsUntaggedMemory(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // error substring; "" = accepted
	}{
		{"Default", func(*Config) {}, ""},
		{"Scaled", func(c *Config) { *c = Scaled() }, ""},
		{"LLC way of 64 B reaches exactly 2^38 B", func(c *Config) {
			c.RowsPerBank, c.LLCAssoc = 1<<20, 65536
		}, ""},
		{"LLC way of 64 B below 2^39 B", func(c *Config) {
			c.RowsPerBank, c.LLCAssoc = 1<<21, 65536
		}, "LLC's 32-bit tags"},
		{"L1 way of 64 B below 2^39 B", func(c *Config) {
			c.RowsPerBank, c.L1KB, c.L1Assoc = 1<<21, 1, 16
		}, "L1's 32-bit tags"},
		{"L2 way of 64 B below 2^39 B", func(c *Config) {
			c.RowsPerBank, c.L2KB, c.L2Assoc = 1<<21, 1, 16
		}, "L2's 32-bit tags"},
		{"L2 way of 128 B reaches 2^39 B", func(c *Config) {
			c.RowsPerBank, c.L2KB, c.L2Assoc = 1<<21, 1, 8
		}, ""},
		{"capacity overflows 64 bits", func(c *Config) {
			c.RowsPerBank, c.Columns = 1<<30, 1<<30
		}, "overflows"},
		{"invalid LLC organization", func(c *Config) { c.LLCAssoc = 0 }, "LLC: sizes must be positive"},
		{"zero CPU clock, which has no cycle latency", func(c *Config) { c.CPUGHz = 0 }, "cpu_ghz"},
		// NaN fails every comparison, so a range check written as
		// v < lo || v > hi would let it through.
		{"NaN warm-up fraction", func(c *Config) { c.WarmupFrac = math.NaN() }, "warmup_frac"},
		{"NaN weak-row rate", func(c *Config) { c.WeakRowRate = math.NaN() }, "weak-row rate"},
		{"NaN migration-failure rate", func(c *Config) { c.MigFailRate = math.NaN() }, "migration-failure rate"},
		{"NaN tag-corruption rate", func(c *Config) { c.TagCorruptRate = math.NaN() }, "tag-corruption rate"},
		{"NaN table-corruption rate", func(c *Config) { c.TableCorruptRate = math.NaN() }, "table-corruption rate"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mutate(&c)
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	c := Scaled()
	c.InstrPerCore = 12345
	c.Seed = 99
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/cfg.json"); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	c := Default()
	c.Cores = 0
	// Save skips validation; Load must reject.
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("invalid config loaded")
	}
}

// TestParseRejectsUnbuildable: each input names a value that some
// design's components refuse (the controller, the core, the DAS
// manager, the DAS layout or the device), so Parse must refuse it too,
// instead of leaving the failure to the first run.
func TestParseRejectsUnbuildable(t *testing.T) {
	for _, in := range []string{
		`{"window_size":0}`,
		`{"write_low":40}`,
		`{"starvation_limit_ns":0}`,
		`{"rob":2}`,
		`{"store_buffer":0}`,
		`{"group_size":512}`,
		`{"group_size":7}`,
		`{"fast_denom":1}`,
		`{"fast_denom":3}`,
		`{"tag_cache_assoc":0}`,
		`{"tag_cache_assoc":3}`,
		`{"filter_threshold":0}`,
		`{"filter_counters":0}`,
		`{"migration_latency_ns":-5}`,
		`{"fault_mig_retries":-1}`,
		`{"replacement":"fifo"}`,
	} {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("Parse(%s) accepted", in)
		}
	}
}
