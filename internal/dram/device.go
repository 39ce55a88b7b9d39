package dram

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Config assembles a DRAM device model.
type Config struct {
	Geometry Geometry
	// Slow is the timing set for commodity rows (always required).
	Slow timing.Params
	// Fast is the timing set for fast-subarray rows. For a homogeneous
	// device pass the same set as Slow.
	Fast timing.Params
	// MigrationLatency is the bank-occupancy time of one DAS-DRAM row
	// swap. Zero disables/ideal-izes migration cost (DAS-DRAM FM).
	MigrationLatency sim.Time
}

// DefaultConfig returns the Table 1 asymmetric configuration:
// DDR3-1600 slow/fast sets and 146.25 ns migration latency (3 tRC_fast
// equivalents: two 1.5 tRC migrations of a full swap's critical path).
func DefaultConfig() Config {
	return Config{
		Geometry:         Default8GB(),
		Slow:             timing.DDR31600Slow(),
		Fast:             timing.DDR31600Fast(),
		MigrationLatency: sim.FromNS(146.25),
	}
}

// Device is the top-level DRAM model: a set of independent channels
// sharing nothing but the configuration.
type Device struct {
	geom             Geometry
	slow, fast       timing.Params
	migrationLatency sim.Time
	channels         []*Channel

	// emodel prices commands in integer picojoules (see internal/energy).
	// It is pure accounting — nothing reads it on a timing path — and is
	// always present, so figure code can cost a run without telemetry.
	emodel *energy.Model

	// tel is the live instrument set (nil = telemetry off, the default;
	// see AttachTelemetry).
	tel *deviceTelemetry

	// cmdLog, when non-nil, observes every command at issue time (nil =
	// off, the default; see SetCommandLog). Rank/bank/row are -1 where a
	// command has no such coordinate (REF covers a whole rank). MIG also
	// reports row -1: the committed golden command-stream digests hash
	// that value, so the source row reaches only the trace slice.
	cmdLog func(t sim.Time, kind CommandKind, channel, rank, bank, row int)
}

// SetCommandLog installs (or, with nil, removes) a command observer. It
// exists for the scheduler equivalence tests: recording the exact
// (time, command, coordinate) stream a controller produces. The hook
// must not mutate simulation state.
func (d *Device) SetCommandLog(fn func(t sim.Time, kind CommandKind, channel, rank, bank, row int)) {
	d.cmdLog = fn
}

// validate checks the parts of cfg shared by New and Reset (geometry is
// validated by New and pinned by Reset).
func (cfg *Config) validate() error {
	if err := cfg.Slow.Validate(); err != nil {
		return fmt.Errorf("slow params: %w", err)
	}
	if err := cfg.Fast.Validate(); err != nil {
		return fmt.Errorf("fast params: %w", err)
	}
	if cfg.Slow.TCK != cfg.Fast.TCK {
		return fmt.Errorf("dram: slow and fast sets must share a clock (%d vs %d)",
			cfg.Slow.TCK, cfg.Fast.TCK)
	}
	if cfg.MigrationLatency < 0 {
		return fmt.Errorf("dram: negative migration latency %d", cfg.MigrationLatency)
	}
	return nil
}

// New validates cfg and builds the device.
func New(cfg Config) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	emodel, err := energy.NewModel(area.Default(), int(cfg.Geometry.RowBytes()), cfg.Geometry.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("dram: energy model: %w", err)
	}
	d := &Device{
		geom:             cfg.Geometry,
		slow:             cfg.Slow,
		fast:             cfg.Fast,
		migrationLatency: cfg.MigrationLatency,
		emodel:           emodel,
	}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		d.channels = append(d.channels, newChannel(d, i, cfg.Geometry.Ranks, cfg.Geometry.Banks))
	}
	d.initRefreshStagger()
	return d, nil
}

// initRefreshStagger staggers initial refresh due times across ranks so
// all ranks do not refresh in lock-step (as real controllers do).
func (d *Device) initRefreshStagger() {
	p := &d.slow
	for ci, ch := range d.channels {
		for ri, r := range ch.ranks {
			frac := sim.Time(ci*d.geom.Ranks+ri) * p.Duration(p.TREFI) / sim.Time(d.geom.Channels*d.geom.Ranks)
			r.nextRefreshDue = p.Duration(p.TREFI) + frac
		}
	}
}

// Reset rewinds the device to its just-constructed state for in-place
// reuse, adopting cfg's timing sets and migration latency (sweeps vary
// them without changing the machine shape). The geometry is pinned: a
// reset never resizes the channel/rank/bank arrays, so cfg.Geometry
// must equal the built one. Telemetry and the command log detach — they
// are per-run attachments. After Reset the device is indistinguishable
// from dram.New(cfg), including the initial refresh stagger; the energy
// model is retained (it is a pure function of the geometry).
func (d *Device) Reset(cfg Config) error {
	if cfg.Geometry != d.geom {
		return fmt.Errorf("dram: reset with geometry %+v on a device built as %+v", cfg.Geometry, d.geom)
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	d.slow, d.fast, d.migrationLatency = cfg.Slow, cfg.Fast, cfg.MigrationLatency
	d.tel = nil
	d.cmdLog = nil
	for _, ch := range d.channels {
		ch.busBusyUntil, ch.busRank, ch.busDirection = 0, -1, busNone
		for _, r := range ch.ranks {
			for _, b := range r.banks {
				*b = Bank{}
			}
			r.actHead = 0
			r.nextAct, r.nextReadAfterWr, r.refreshBusyUntil, r.nextRefreshDue = 0, 0, 0, 0
			r.Refreshes = 0
			for i := range r.actWindow {
				r.actWindow[i] = -(1 << 40)
			}
		}
	}
	d.initRefreshStagger()
	return nil
}

// Geometry returns the device organization.
func (d *Device) Geometry() Geometry { return d.geom }

// Channel returns channel i.
func (d *Device) Channel(i int) *Channel { return d.channels[i] }

// Channels returns the number of channels.
func (d *Device) Channels() int { return len(d.channels) }

// SlowParams returns the commodity timing set.
func (d *Device) SlowParams() *timing.Params { return &d.slow }

// FastParams returns the fast-subarray timing set.
func (d *Device) FastParams() *timing.Params { return &d.fast }

// MigrationLatency returns the configured per-swap bank occupancy.
func (d *Device) MigrationLatency() sim.Time { return d.migrationLatency }

// EnergyModel returns the device's per-command energy table.
func (d *Device) EnergyModel() *energy.Model { return d.emodel }

// ClockPeriod returns the DRAM command-clock period.
func (d *Device) ClockPeriod() sim.Time { return d.slow.TCK }

// Stats aggregates command counts across the whole device. The *Fast
// fields count the subset of each command that touched a fast-subarray
// row (the energy model prices the classes differently).
type Stats struct {
	Activates, ActivatesFast   uint64
	Reads, ReadsFast           uint64
	Writes, WritesFast         uint64
	Precharges, PrechargesFast uint64
	Refreshes, Migrations      uint64
}

// EnergyCounts converts the command counts into the energy model's
// per-class pricing input (slow counts are total minus fast).
func (s Stats) EnergyCounts() energy.Counts {
	return energy.Counts{
		ActSlow: s.Activates - s.ActivatesFast, ActFast: s.ActivatesFast,
		PreSlow: s.Precharges - s.PrechargesFast, PreFast: s.PrechargesFast,
		RdSlow: s.Reads - s.ReadsFast, RdFast: s.ReadsFast,
		WrSlow: s.Writes - s.WritesFast, WrFast: s.WritesFast,
		Ref: s.Refreshes, Mig: s.Migrations,
	}
}

// ResetStats zeroes all command counters (warm-up boundary); timing state
// is untouched.
func (d *Device) ResetStats() {
	for _, ch := range d.channels {
		for _, r := range ch.ranks {
			r.Refreshes = 0
			for _, b := range r.banks {
				b.Activates, b.ActivatesFast, b.Reads, b.ReadsFast = 0, 0, 0, 0
				b.Writes, b.WritesFast, b.Precharges, b.PrechargesFast = 0, 0, 0, 0
				b.Migrations = 0
			}
		}
	}
}

// CollectStats sums per-bank and per-rank counters.
func (d *Device) CollectStats() Stats {
	var s Stats
	for _, ch := range d.channels {
		for _, r := range ch.ranks {
			s.Refreshes += r.Refreshes
			for _, b := range r.banks {
				s.Activates += b.Activates
				s.ActivatesFast += b.ActivatesFast
				s.Reads += b.Reads
				s.ReadsFast += b.ReadsFast
				s.Writes += b.Writes
				s.WritesFast += b.WritesFast
				s.Precharges += b.Precharges
				s.PrechargesFast += b.PrechargesFast
				s.Migrations += b.Migrations
			}
		}
	}
	return s
}
