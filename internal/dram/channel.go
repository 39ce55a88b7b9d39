package dram

import (
	"repro/internal/sim"
	"repro/internal/timing"
)

// busDir is the direction of the last data-bus burst.
type busDir uint8

const (
	busNone busDir = iota
	busRead
	busWrite
)

// Channel models one memory channel: its ranks, the shared data bus
// (with rank-switch and read/write turnaround penalties), and command
// issue. The memory controller issues at most one command per DRAM cycle
// per channel, which models the command bus implicitly.
type Channel struct {
	dev   *Device
	idx   int
	ranks []*Rank

	busBusyUntil sim.Time
	busRank      int
	busDirection busDir
}

// newChannel allocates a channel and its ranks; Device.Reset sets their
// state.
func newChannel(dev *Device, idx, ranks, banks int) *Channel {
	ch := &Channel{dev: dev, idx: idx}
	for i := 0; i < ranks; i++ {
		ch.ranks = append(ch.ranks, newRank(banks))
	}
	return ch
}

// Rank returns rank i.
func (ch *Channel) Rank(i int) *Rank { return ch.ranks[i] }

// Ranks returns the number of ranks.
func (ch *Channel) Ranks() int { return len(ch.ranks) }

// params returns the timing set for a row class.
func (ch *Channel) params(cls RowClass) *timing.Params {
	if cls == RowFast {
		return &ch.dev.fast
	}
	return &ch.dev.slow
}

// claimBus records a burst occupying [start, end) for rank/dir.
func (ch *Channel) claimBus(end sim.Time, rank int, dir busDir) {
	ch.busBusyUntil = end
	ch.busRank = rank
	ch.busDirection = dir
}

// probe is the lazy-expiry half of a Can* predicate. Once t has reached
// rankH, the rank-level horizon of the command being probed, it resolves
// the bank's ended migration (lazyExpire) and reports true; before that
// the command cannot issue, so it leaves the bank untouched and reports
// false. Which probes resolve an expiry is visible to the controller
// (DESIGN.md §5.2, "Lazy-expiry parity"), so this order is load-bearing.
func (ch *Channel) probe(t sim.Time, rank, bank int, rankH sim.Time) bool {
	if t < rankH {
		return false
	}
	ch.ranks[rank].banks[bank].lazyExpire(t)
	return true
}

// CanActivate reports whether ACT(rank, bank) of class cls may issue at t.
func (ch *Channel) CanActivate(t sim.Time, rank, bank int, cls RowClass) bool {
	p := ch.params(cls)
	return ch.probe(t, rank, bank, ch.ranks[rank].earliestActivate(p.Duration(p.TFAW))) &&
		ch.EarliestActivate(t, rank, bank, cls) <= t
}

// Activate issues ACT at t. The caller must have checked CanActivate.
func (ch *Channel) Activate(t sim.Time, rank, bank, row int, cls RowClass) {
	p := ch.params(cls)
	r := ch.ranks[rank]
	r.banks[bank].activate(t, row, cls, p)
	r.recordAct(t, p.Duration(p.TRRD))
	ch.issued(t, CmdActivate, rank, bank, row, cls)
}

// CanRead reports whether RD(rank, bank) may issue at t.
func (ch *Channel) CanRead(t sim.Time, rank, bank int) bool {
	return ch.probe(t, rank, bank, ch.ranks[rank].earliestRead()) && ch.EarliestRead(t, rank, bank) <= t
}

// Read issues RD at t and returns the absolute time the data burst ends.
func (ch *Channel) Read(t sim.Time, rank, bank int) sim.Time {
	b := ch.ranks[rank].banks[bank]
	end := b.read(t)
	ch.claimBus(end, rank, busRead)
	ch.issued(t, CmdRead, rank, bank, b.openRow, b.openCls)
	return end
}

// CanWrite reports whether WR(rank, bank) may issue at t.
func (ch *Channel) CanWrite(t sim.Time, rank, bank int) bool {
	return ch.probe(t, rank, bank, ch.ranks[rank].refreshBusyUntil) && ch.EarliestWrite(t, rank, bank) <= t
}

// Write issues WR at t and returns the absolute time the data burst ends.
func (ch *Channel) Write(t sim.Time, rank, bank int) sim.Time {
	r := ch.ranks[rank]
	b := r.banks[bank]
	end := b.write(t)
	p := b.rowPar
	r.noteWriteBurst(end, p.Duration(p.TWTR))
	ch.claimBus(end, rank, busWrite)
	ch.issued(t, CmdWrite, rank, bank, b.openRow, b.openCls)
	return end
}

// CanPrecharge reports whether PRE(rank, bank) may issue at t. A PRE has
// no rank-level constraint, so the probe always resolves the expiry.
func (ch *Channel) CanPrecharge(t sim.Time, rank, bank int) bool {
	ch.ranks[rank].banks[bank].lazyExpire(t)
	return ch.EarliestPrecharge(t, rank, bank) <= t
}

// Precharge issues PRE at t.
func (ch *Channel) Precharge(t sim.Time, rank, bank int) {
	b := ch.ranks[rank].banks[bank]
	b.precharge(t)
	ch.issued(t, CmdPrecharge, rank, bank, b.openRow, b.openCls)
}

// CanRefresh reports whether REF(rank) may issue at t. Past the rank's
// tRFC window it resolves expiries bank by bank up to the first bank
// that blocks the REF; that loop sets only the expiry order.
func (ch *Channel) CanRefresh(t sim.Time, rank int) bool {
	r := ch.ranks[rank]
	if t < r.refreshBusyUntil {
		return false
	}
	for _, b := range r.banks {
		b.lazyExpire(t)
		if b.earliestRefresh(t) > t {
			break
		}
	}
	return ch.EarliestRefresh(t, rank) <= t
}

// Refresh issues REF(rank) at t.
func (ch *Channel) Refresh(t sim.Time, rank int) {
	p := &ch.dev.slow
	ch.ranks[rank].refresh(t, p.Duration(p.TRFC), p.Duration(p.TREFI))
	ch.issued(t, CmdRefresh, rank, -1, -1, RowSlow)
}

// CanMigrate reports whether a migration of srcRow may start on
// (rank, bank) at t.
func (ch *Channel) CanMigrate(t sim.Time, rank, bank, srcRow int) bool {
	return ch.probe(t, rank, bank, ch.ranks[rank].refreshBusyUntil) && ch.EarliestMigrate(t, rank, bank, srcRow) <= t
}

// Migrate starts a migration of srcRow occupying (rank, bank) for the
// device's configured migration latency and returns its completion
// time. srcRow labels the trace slice only; the command log reports -1.
func (ch *Channel) Migrate(t sim.Time, rank, bank, srcRow int) sim.Time {
	ch.ranks[rank].banks[bank].migrate(t, ch.dev.migrationLatency)
	ch.issued(t, CmdMigrate, rank, bank, srcRow, RowSlow)
	return t + ch.dev.migrationLatency
}

// issued is the one point every command passes once it has taken
// effect. It counts the command in the device tally, hands it to the
// command log and, with a trace recorder attached, records its slice.
// row is the row the command opened, accessed, closed or migrated (-1
// for REF) and cls that row's class (REF and MIG count as RowSlow).
// The command log reports MIG with row -1, the form the committed
// golden command-stream digests hash.
func (ch *Channel) issued(t sim.Time, kind CommandKind, rank, bank, row int, cls RowClass) {
	d := ch.dev
	d.cmds[kind][cls]++
	if d.cmdLog != nil {
		logRow := row
		if kind == CmdMigrate {
			logRow = -1
		}
		d.cmdLog(t, kind, ch.idx, rank, bank, logRow)
	}
	if d.trace != nil {
		d.trace.record(t, kind, ch.idx, rank, bank, row, cls)
	}
}
