package dram

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// deviceTelemetry is the device's live instrument set: per-command
// counts, per-command-class timing occupancy (how much bank time, in
// picoseconds, each command class consumed), and per-command energy in
// integer picojoules (priced by the device's energy model, split by
// subarray class where the command touches one). With a trace recorder
// attached it also records every command as a slice on its bank track
// (REF: its rank's refresh track) and samples the cumulative dynamic
// energy on a counter track. The counters are nil-receiver-safe, so a
// trace-only attachment leaves them nil, but the device keeps the whole
// struct behind a nil pointer so the uninstrumented hot path pays
// exactly one branch per command.
type deviceTelemetry struct {
	act, actFast, rd, wr, pre, ref, mig          *telemetry.Counter
	occACT, occRD, occWR, occPRE, occREF, occMIG *telemetry.Counter

	// Energy counters, indexed by RowClass where per-class. em is the
	// device's pricing table (never nil while tel is attached).
	em                   *energy.Model
	eAct, ePre, eRd, eWr [2]*telemetry.Counter
	eRef, eMig           *telemetry.Counter

	// trace is the command recorder (nil = counters only). bankTID is
	// indexed by Geometry.BankID, rankTID by channel*Ranks+rank; cumPJ
	// is the running dynamic-energy total the energyTID track samples.
	trace     *telemetry.TraceRecorder
	geom      Geometry
	bankTID   []int
	rankTID   []int
	energyTID int
	cumPJ     int64
}

// AttachTelemetry registers the device's command counters, occupancy
// sums and energy counters on reg, and allocates its bank, rank-refresh
// and cumulative-energy tracks on trace. Either may be disabled (nil
// registry / recorder); with both nil the device stays uninstrumented
// (the default). Call once at assembly time, before traffic.
func (d *Device) AttachTelemetry(reg *telemetry.Registry, trace *telemetry.TraceRecorder) {
	if !reg.Enabled() && trace == nil {
		return
	}
	tel := &deviceTelemetry{
		act:     reg.Counter("dram.cmd.act"),
		actFast: reg.Counter("dram.cmd.act_fast"),
		rd:      reg.Counter("dram.cmd.rd"),
		wr:      reg.Counter("dram.cmd.wr"),
		pre:     reg.Counter("dram.cmd.pre"),
		ref:     reg.Counter("dram.cmd.ref"),
		mig:     reg.Counter("dram.cmd.mig"),
		occACT:  reg.Counter("dram.occupancy_ps.act"),
		occRD:   reg.Counter("dram.occupancy_ps.rd"),
		occWR:   reg.Counter("dram.occupancy_ps.wr"),
		occPRE:  reg.Counter("dram.occupancy_ps.pre"),
		occREF:  reg.Counter("dram.occupancy_ps.ref"),
		occMIG:  reg.Counter("dram.occupancy_ps.mig"),
		em:      d.emodel,
		eAct: [2]*telemetry.Counter{
			RowSlow: reg.Counter("dram.energy_pj.act_slow"),
			RowFast: reg.Counter("dram.energy_pj.act_fast"),
		},
		ePre: [2]*telemetry.Counter{
			RowSlow: reg.Counter("dram.energy_pj.pre_slow"),
			RowFast: reg.Counter("dram.energy_pj.pre_fast"),
		},
		eRd: [2]*telemetry.Counter{
			RowSlow: reg.Counter("dram.energy_pj.rd_slow"),
			RowFast: reg.Counter("dram.energy_pj.rd_fast"),
		},
		eWr: [2]*telemetry.Counter{
			RowSlow: reg.Counter("dram.energy_pj.wr_slow"),
			RowFast: reg.Counter("dram.energy_pj.wr_fast"),
		},
		eRef:  reg.Counter("dram.energy_pj.ref"),
		eMig:  reg.Counter("dram.energy_pj.mig"),
		trace: trace,
		geom:  d.geom,
	}
	if trace != nil {
		g := d.geom
		for ch := 0; ch < g.Channels; ch++ {
			for r := 0; r < g.Ranks; r++ {
				for b := 0; b < g.Banks; b++ {
					tel.bankTID = append(tel.bankTID, trace.Track(fmt.Sprintf("ch%d/rk%d/bk%d", ch, r, b)))
				}
			}
		}
		for ch := 0; ch < g.Channels; ch++ {
			for r := 0; r < g.Ranks; r++ {
				tel.rankTID = append(tel.rankTID, trace.Track(fmt.Sprintf("ch%d/rk%d refresh", ch, r)))
			}
		}
		tel.energyTID = trace.Track("DRAM energy (cumulative pJ)")
	}
	d.tel = tel
}

// BankTrack returns the trace track that (channel, rank, bank)'s
// commands are recorded on, or -1 when no trace recorder is attached.
// The controller links request flows to it.
func (d *Device) BankTrack(channel, rank, bank int) int {
	if d.tel == nil {
		return -1
	}
	return d.tel.bankTrack(channel, rank, bank)
}

// bankTrack and rankTrack return a bank's command track and a rank's
// refresh track (-1 without a trace recorder).
func (t *deviceTelemetry) bankTrack(channel, rank, bank int) int {
	if t.trace == nil {
		return -1
	}
	return t.bankTID[t.geom.BankID(Coord{Channel: channel, Rank: rank, Bank: bank})]
}

func (t *deviceTelemetry) rankTrack(channel, rank int) int {
	if t.trace == nil {
		return -1
	}
	return t.rankTID[channel*t.geom.Ranks+rank]
}

// slice records a command occupying [at, at+dur) on track tid (row < 0
// omits the row argument) and advances the cumulative-energy track by
// the command's price pj. A no-op without a trace recorder.
func (t *deviceTelemetry) slice(name string, at, dur sim.Time, tid, row int, pj int64) {
	if t.trace == nil {
		return
	}
	t.trace.Duration(name, int64(at), int64(dur), tid, int64(row))
	t.cumPJ += pj
	t.trace.Counter("energy_pj", int64(at), t.energyTID, t.cumPJ)
}

// noteActivate records an ACT of row (class cls) on (ch, rank, bank)
// whose row-open takes tRCD.
func (t *deviceTelemetry) noteActivate(at sim.Time, ch, rank, bank, row int, cls RowClass, trcd sim.Time) {
	t.act.Inc()
	name := "ACT"
	if cls == RowFast {
		t.actFast.Inc()
		name = "ACT fast"
	}
	t.occACT.Add(uint64(trcd))
	t.eAct[cls].Add(uint64(t.em.ActPJ[cls]))
	t.slice(name, at, trcd, t.bankTrack(ch, rank, bank), row, t.em.ActPJ[cls])
}

// noteRead records a RD burst [at, at+dur) on an open row of class cls.
func (t *deviceTelemetry) noteRead(at sim.Time, ch, rank, bank, row int, cls RowClass, dur sim.Time) {
	t.rd.Inc()
	t.occRD.Add(uint64(dur))
	t.eRd[cls].Add(uint64(t.em.RdPJ[cls]))
	t.slice("RD", at, dur, t.bankTrack(ch, rank, bank), row, t.em.RdPJ[cls])
}

// noteWrite records a WR burst [at, at+dur) on an open row of class cls.
func (t *deviceTelemetry) noteWrite(at sim.Time, ch, rank, bank, row int, cls RowClass, dur sim.Time) {
	t.wr.Inc()
	t.occWR.Add(uint64(dur))
	t.eWr[cls].Add(uint64(t.em.WrPJ[cls]))
	t.slice("WR", at, dur, t.bankTrack(ch, rank, bank), row, t.em.WrPJ[cls])
}

// notePrecharge records a PRE closing a row of class cls, taking tRP.
func (t *deviceTelemetry) notePrecharge(at sim.Time, ch, rank, bank int, cls RowClass, trp sim.Time) {
	t.pre.Inc()
	t.occPRE.Add(uint64(trp))
	t.ePre[cls].Add(uint64(t.em.PrePJ[cls]))
	t.slice("PRE", at, trp, t.bankTrack(ch, rank, bank), -1, t.em.PrePJ[cls])
}

// noteRefresh records a REF occupying (ch, rank) for tRFC.
func (t *deviceTelemetry) noteRefresh(at sim.Time, ch, rank int, trfc sim.Time) {
	t.ref.Inc()
	t.occREF.Add(uint64(trfc))
	t.eRef.Add(uint64(t.em.RefPJ))
	t.slice("REF", at, trfc, t.rankTrack(ch, rank), -1, t.em.RefPJ)
}

// noteMigrate records a migration swap of srcRow occupying its bank for
// dur.
func (t *deviceTelemetry) noteMigrate(at sim.Time, ch, rank, bank, srcRow int, dur sim.Time) {
	t.mig.Inc()
	t.occMIG.Add(uint64(dur))
	t.eMig.Add(uint64(t.em.MigPJ))
	t.slice("MIG", at, dur, t.bankTrack(ch, rank, bank), srcRow, t.em.MigPJ)
}
