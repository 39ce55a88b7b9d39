package dram

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// AttachTelemetry exposes the device's command tally on reg and
// allocates its bank, rank-refresh and cumulative-energy tracks on
// trace. Either may be disabled (nil registry / recorder); with both nil
// the device stays uninstrumented (the default). Call once at assembly
// time, before traffic.
//
// Every metric is a sample of the tally, read at snapshot time: per
// command kind its count (dram.cmd.*, plus dram.cmd.act_fast), the bank
// time it occupied (dram.occupancy_ps.*: the count times the class's
// duration) and its dynamic energy (dram.energy_pj.*: the count times
// the class's price, per class where the command touches a row). The
// values are exact integers and the issue path does no metric work.
func (d *Device) AttachTelemetry(reg *telemetry.Registry, trace *telemetry.TraceRecorder) {
	if reg.Enabled() {
		for k := CmdActivate; k <= CmdMigrate; k++ {
			name := strings.ToLower(k.String())
			reg.Sample("dram.cmd."+name, func() int64 { return int64(d.Issued(k)) })
			reg.Sample("dram.occupancy_ps."+name, func() int64 {
				return d.weigh(k, RowSlow, int64(d.duration(k, RowSlow))) +
					d.weigh(k, RowFast, int64(d.duration(k, RowFast)))
			})
			if k == CmdRefresh || k == CmdMigrate {
				reg.Sample("dram.energy_pj."+name, func() int64 { return d.weigh(k, RowSlow, d.price(k, RowSlow)) })
				continue
			}
			for _, cls := range []RowClass{RowSlow, RowFast} {
				reg.Sample("dram.energy_pj."+name+"_"+cls.String(), func() int64 { return d.weigh(k, cls, d.price(k, cls)) })
			}
		}
		reg.Sample("dram.cmd.act_fast", func() int64 { return int64(d.cmds[CmdActivate][RowFast]) })
	}
	if trace != nil {
		d.trace = newDeviceTrace(d, trace)
	}
}

// weigh returns the tally's count of kind on rows of class cls times w.
func (d *Device) weigh(kind CommandKind, cls RowClass, w int64) int64 {
	return int64(d.cmds[kind][cls]) * w
}

// duration returns how long a command of kind on a row of class cls
// occupies its bank (REF: its rank): its trace slice's length and its
// share of dram.occupancy_ps.
func (d *Device) duration(kind CommandKind, cls RowClass) sim.Time {
	p := &d.slow
	if cls == RowFast {
		p = &d.fast
	}
	switch kind {
	case CmdActivate:
		return p.Duration(p.TRCD)
	case CmdRead:
		return p.Duration(p.ReadLatency())
	case CmdWrite:
		return p.Duration(p.WriteLatency())
	case CmdPrecharge:
		return p.Duration(p.TRP)
	case CmdRefresh:
		return d.slow.Duration(d.slow.TRFC)
	default:
		return d.migrationLatency
	}
}

// price returns the energy model's integer-picojoule price of a command
// of kind on a row of class cls.
func (d *Device) price(kind CommandKind, cls RowClass) int64 {
	em := d.emodel
	switch kind {
	case CmdActivate:
		return em.ActPJ[cls]
	case CmdRead:
		return em.RdPJ[cls]
	case CmdWrite:
		return em.WrPJ[cls]
	case CmdPrecharge:
		return em.PrePJ[cls]
	case CmdRefresh:
		return em.RefPJ
	default:
		return em.MigPJ
	}
}

// deviceTrace records every command as a slice on its bank track (REF:
// its rank's refresh track) and samples the cumulative dynamic energy on
// a counter track.
type deviceTrace struct {
	dev *Device
	rec *telemetry.TraceRecorder
	// bankTID is indexed by Geometry.BankID, rankTID by
	// channel*Ranks+rank; cumPJ is the running dynamic-energy total the
	// energyTID track samples.
	bankTID   []int
	rankTID   []int
	energyTID int
	cumPJ     int64
}

// newDeviceTrace allocates d's tracks on rec in a fixed order: every
// bank, every rank's refresh track, then the energy counter.
func newDeviceTrace(d *Device, rec *telemetry.TraceRecorder) *deviceTrace {
	tr := &deviceTrace{dev: d, rec: rec}
	g := d.geom
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			for b := 0; b < g.Banks; b++ {
				tr.bankTID = append(tr.bankTID, rec.Track(fmt.Sprintf("ch%d/rk%d/bk%d", ch, r, b)))
			}
		}
	}
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			tr.rankTID = append(tr.rankTID, rec.Track(fmt.Sprintf("ch%d/rk%d refresh", ch, r)))
		}
	}
	tr.energyTID = rec.Track("DRAM energy (cumulative pJ)")
	return tr
}

// BankTrack returns the trace track that (channel, rank, bank)'s
// commands are recorded on, or -1 when no trace recorder is attached.
// The controller links request flows to it.
func (d *Device) BankTrack(channel, rank, bank int) int {
	if d.trace == nil {
		return -1
	}
	return d.trace.bankTID[d.geom.BankID(Coord{Channel: channel, Rank: rank, Bank: bank})]
}

// record adds one issued command's slice, covering its duration from t
// (a fast ACT is named "ACT fast"; PRE and REF carry no row argument),
// and advances the cumulative-energy track by its price.
func (tr *deviceTrace) record(t sim.Time, kind CommandKind, ch, rank, bank, row int, cls RowClass) {
	d := tr.dev
	name := kind.String()
	switch kind {
	case CmdActivate:
		if cls == RowFast {
			name = "ACT fast"
		}
	case CmdPrecharge:
		row = -1
	}
	var tid int
	if kind == CmdRefresh {
		tid = tr.rankTID[ch*d.geom.Ranks+rank]
	} else {
		tid = d.BankTrack(ch, rank, bank)
	}
	tr.rec.Duration(name, int64(t), int64(d.duration(kind, cls)), tid, int64(row))
	tr.cumPJ += d.price(kind, cls)
	tr.rec.Counter("energy_pj", int64(t), tr.energyTID, tr.cumPJ)
}
