package core

import "fmt"

// Design selects which of the paper's evaluated memory designs the
// manager implements (Section 7).
type Design uint8

const (
	// Standard is homogeneous commodity DRAM (the baseline).
	Standard Design = iota
	// SAS is static asymmetric-subarray DRAM: profiled rows are
	// pre-assigned to the fast level, no migration.
	SAS
	// CHARM is SAS plus optimized column access latency on the fast
	// level (the device must be configured with the CHARM fast set).
	CHARM
	// DAS is the paper's dynamic asymmetric-subarray DRAM.
	DAS
	// DASFM is DAS with free (zero-latency) migration.
	DASFM
	// FS is the hypothetical all-fast-subarray DRAM (upper bound).
	FS
)

// String names the design as in the paper's figures.
func (d Design) String() string {
	switch d {
	case Standard:
		return "Standard"
	case SAS:
		return "SAS-DRAM"
	case CHARM:
		return "CHARM"
	case DAS:
		return "DAS-DRAM"
	case DASFM:
		return "DAS-DRAM (FM)"
	case FS:
		return "FS-DRAM"
	default:
		return "unknown"
	}
}

// ParseDesign parses a design name (short forms accepted).
func ParseDesign(s string) (Design, error) {
	switch s {
	case "standard", "Standard":
		return Standard, nil
	case "sas", "SAS", "SAS-DRAM":
		return SAS, nil
	case "charm", "CHARM":
		return CHARM, nil
	case "das", "DAS", "DAS-DRAM":
		return DAS, nil
	case "dasfm", "das-fm", "DAS-DRAM (FM)":
		return DASFM, nil
	case "fs", "FS", "FS-DRAM":
		return FS, nil
	}
	return 0, fmt.Errorf("core: unknown design %q", s)
}

// AllDesigns lists every design in evaluation order.
func AllDesigns() []Design {
	return []Design{Standard, SAS, CHARM, DAS, DASFM, FS}
}

// Dynamic reports whether the design performs run-time migration.
func (d Design) Dynamic() bool { return d == DAS || d == DASFM }

// Static reports whether the design uses profiled pre-assignment.
func (d Design) Static() bool { return d == SAS || d == CHARM }

// Config parameterizes the manager (Table 1 defaults via DefaultConfig).
type Config struct {
	Design Design
	// FastDenom is the fast-level capacity ratio denominator (8 = 1/8).
	FastDenom int
	// GroupSize is the migration group size in rows.
	GroupSize int
	// TagCacheBytes is the translation (tag) cache capacity.
	TagCacheBytes int
	// TagCacheAssoc is its associativity.
	TagCacheAssoc int
	// FilterThreshold is the promotion filter threshold (1 = always).
	FilterThreshold int
	// FilterCounters is the number of filter counters.
	FilterCounters int
	// Replacement is the fast-level victim policy.
	Replacement Replacement
	// Seed feeds the random replacement policy.
	Seed uint64
	// MigRetries is how many times a failed migration is retried before
	// the row is pinned in the slow level (fault handling; irrelevant on
	// a fault-free device).
	MigRetries int
}

// DefaultConfig returns the paper's final configuration: 1/8 fast level,
// 32-row migration groups, 128 KB tag cache, no filtering, LRU
// replacement.
func DefaultConfig(d Design) Config {
	return Config{
		Design:          d,
		FastDenom:       8,
		GroupSize:       32,
		TagCacheBytes:   128 << 10,
		TagCacheAssoc:   8,
		FilterThreshold: 1,
		FilterCounters:  1024,
		Replacement:     ReplLRU,
		Seed:            1,
		MigRetries:      3,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.FastDenom <= 1 {
		return fmt.Errorf("core: fast denominator must exceed 1")
	}
	if c.GroupSize <= 0 || c.GroupSize > 256 {
		return fmt.Errorf("core: group size must be in 1..256")
	}
	if _, _, err := tagSets(c.TagCacheBytes, c.TagCacheAssoc); err != nil {
		return err
	}
	if c.FilterThreshold < 1 || c.FilterCounters <= 0 {
		return fmt.Errorf("core: filter parameters invalid")
	}
	if c.MigRetries < 0 {
		return fmt.Errorf("core: migration retries must be non-negative, got %d", c.MigRetries)
	}
	return nil
}
