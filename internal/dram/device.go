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

	// cmds counts every command issued since Reset by kind and row class
	// (see Channel.issued). It is the device's one command count:
	// CollectStats reads it against statsBase, the warm-up snapshot, and
	// every dram.* metric samples it (see AttachTelemetry).
	cmds, statsBase tally

	// trace records command slices and cumulative energy (nil = off, the
	// default; see AttachTelemetry).
	trace *deviceTrace

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

// New validates cfg and builds the device: it allocates the channel,
// rank and bank arrays for cfg.Geometry, and Reset sets their run state.
func New(cfg Config) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	emodel, err := energy.NewModel(area.Default(), int(cfg.Geometry.RowBytes()), cfg.Geometry.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("dram: energy model: %w", err)
	}
	d := &Device{geom: cfg.Geometry, emodel: emodel}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		d.channels = append(d.channels, newChannel(d, i, cfg.Geometry.Ranks, cfg.Geometry.Banks))
	}
	if err := d.Reset(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset rewinds the device to its just-constructed state for in-place
// reuse, adopting cfg's timing sets and migration latency (sweeps vary
// them without changing the machine shape). It is also the second half
// of New, so a rewound device equals a new one by construction. The
// geometry is pinned: a reset never resizes the channel/rank/bank
// arrays, so cfg.Geometry must equal the built one. The command tally
// restarts from zero, and the trace and the command log detach — they
// are per-run attachments. The energy model is retained (it is a pure
// function of the geometry).
func (d *Device) Reset(cfg Config) error {
	if cfg.Geometry != d.geom {
		return fmt.Errorf("dram: reset with geometry %+v on a device built as %+v", cfg.Geometry, d.geom)
	}
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
	d.slow, d.fast, d.migrationLatency = cfg.Slow, cfg.Fast, cfg.MigrationLatency
	d.cmds, d.statsBase = tally{}, tally{}
	d.trace = nil
	d.cmdLog = nil
	// Initial refresh due times are staggered across ranks so all ranks
	// do not refresh in lock-step (as real controllers do).
	tREFI := d.slow.Duration(d.slow.TREFI)
	nRanks := sim.Time(d.geom.Channels * d.geom.Ranks)
	for ci, ch := range d.channels {
		ch.busBusyUntil, ch.busRank, ch.busDirection = 0, -1, busNone
		for ri, r := range ch.ranks {
			for _, b := range r.banks {
				*b = Bank{}
			}
			*r = Rank{banks: r.banks, nextRefreshDue: tREFI + sim.Time(ci*d.geom.Ranks+ri)*tREFI/nRanks}
			// Pre-fill the tFAW window with the distant past so the first
			// four activates are not spuriously throttled.
			for i := range r.actWindow {
				r.actWindow[i] = -(1 << 40)
			}
		}
	}
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

// tally counts commands by kind and by the class of the row each one
// touched; REF and MIG touch no row and count as RowSlow.
type tally [numKinds][2]uint64

// Issued returns the commands of kind issued since Reset, both classes
// (the warm-up boundary does not restart it; see CollectStats).
func (d *Device) Issued(kind CommandKind) uint64 {
	return d.cmds[kind][RowSlow] + d.cmds[kind][RowFast]
}

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

// ResetStats starts the statistics window (warm-up boundary): it
// snapshots the command tally, which keeps counting. Timing state is
// untouched.
func (d *Device) ResetStats() { d.statsBase = d.cmds }

// CollectStats returns the commands issued since the last ResetStats,
// or since Reset if there was none.
func (d *Device) CollectStats() Stats {
	n := func(k CommandKind, cls RowClass) uint64 { return d.cmds[k][cls] - d.statsBase[k][cls] }
	all := func(k CommandKind) uint64 { return n(k, RowSlow) + n(k, RowFast) }
	return Stats{
		Activates: all(CmdActivate), ActivatesFast: n(CmdActivate, RowFast),
		Reads: all(CmdRead), ReadsFast: n(CmdRead, RowFast),
		Writes: all(CmdWrite), WritesFast: n(CmdWrite, RowFast),
		Precharges: all(CmdPrecharge), PrechargesFast: n(CmdPrecharge, RowFast),
		Refreshes: all(CmdRefresh), Migrations: all(CmdMigrate),
	}
}
