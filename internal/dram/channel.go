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

// busPenalty returns the extra delay before a new burst may start given
// the previous burst's rank and direction.
func (ch *Channel) busPenalty(rank int, dir busDir) sim.Time {
	p := &ch.dev.slow
	var pen sim.Time
	if ch.busRank >= 0 && ch.busRank != rank {
		pen += p.Duration(p.TRTR)
	}
	if ch.busDirection != busNone && ch.busDirection != dir {
		pen += p.Duration(2) // bus turnaround bubble
	}
	return pen
}

// busFree reports whether a burst starting at start (for rank/dir) clears
// the data bus.
func (ch *Channel) busFree(start sim.Time, rank int, dir busDir) bool {
	return start >= ch.busBusyUntil+ch.busPenalty(rank, dir)
}

// claimBus records a burst occupying [start, end) for rank/dir.
func (ch *Channel) claimBus(end sim.Time, rank int, dir busDir) {
	ch.busBusyUntil = end
	ch.busRank = rank
	ch.busDirection = dir
}

// CanActivate reports whether ACT(rank, bank) of class cls may issue at t.
func (ch *Channel) CanActivate(t sim.Time, rank, bank int, cls RowClass) bool {
	p := ch.params(cls)
	r := ch.ranks[rank]
	return r.canActivate(t, p.Duration(p.TFAW)) && r.banks[bank].canActivate(t)
}

// Activate issues ACT at t. The caller must have checked CanActivate.
func (ch *Channel) Activate(t sim.Time, rank, bank, row int, cls RowClass) {
	p := ch.params(cls)
	r := ch.ranks[rank]
	r.banks[bank].activate(t, row, cls, p)
	r.recordAct(t, p.Duration(p.TRRD))
	if tel := ch.dev.tel; tel != nil {
		tel.noteActivate(t, ch.idx, rank, bank, row, cls, p.Duration(p.TRCD))
	}
	if log := ch.dev.cmdLog; log != nil {
		log(t, CmdActivate, ch.idx, rank, bank, row)
	}
}

// CanRead reports whether RD(rank, bank) may issue at t.
func (ch *Channel) CanRead(t sim.Time, rank, bank int) bool {
	r := ch.ranks[rank]
	b := r.banks[bank]
	if !r.canRead(t) || !b.canRead(t) {
		return false
	}
	p := b.rowPar
	return ch.busFree(t+p.Duration(p.CL), rank, busRead)
}

// Read issues RD at t and returns the absolute time the data burst ends.
func (ch *Channel) Read(t sim.Time, rank, bank int) sim.Time {
	b := ch.ranks[rank].banks[bank]
	row := b.openRow
	end := b.read(t)
	ch.claimBus(end, rank, busRead)
	if tel := ch.dev.tel; tel != nil {
		tel.noteRead(t, ch.idx, rank, bank, row, b.openCls, end-t)
	}
	if log := ch.dev.cmdLog; log != nil {
		log(t, CmdRead, ch.idx, rank, bank, row)
	}
	return end
}

// CanWrite reports whether WR(rank, bank) may issue at t.
func (ch *Channel) CanWrite(t sim.Time, rank, bank int) bool {
	r := ch.ranks[rank]
	b := r.banks[bank]
	if !r.canWrite(t) || !b.canWrite(t) {
		return false
	}
	p := b.rowPar
	return ch.busFree(t+p.Duration(p.CWL), rank, busWrite)
}

// Write issues WR at t and returns the absolute time the data burst ends.
func (ch *Channel) Write(t sim.Time, rank, bank int) sim.Time {
	r := ch.ranks[rank]
	b := r.banks[bank]
	row := b.openRow
	end := b.write(t)
	p := b.rowPar
	r.noteWriteBurst(end, p.Duration(p.TWTR))
	ch.claimBus(end, rank, busWrite)
	if tel := ch.dev.tel; tel != nil {
		tel.noteWrite(t, ch.idx, rank, bank, row, b.openCls, end-t)
	}
	if log := ch.dev.cmdLog; log != nil {
		log(t, CmdWrite, ch.idx, rank, bank, row)
	}
	return end
}

// CanPrecharge reports whether PRE(rank, bank) may issue at t.
func (ch *Channel) CanPrecharge(t sim.Time, rank, bank int) bool {
	return ch.ranks[rank].banks[bank].canPrecharge(t)
}

// Precharge issues PRE at t.
func (ch *Channel) Precharge(t sim.Time, rank, bank int) {
	b := ch.ranks[rank].banks[bank]
	row := b.openRow
	b.precharge(t)
	if tel := ch.dev.tel; tel != nil {
		p := b.rowPar
		tel.notePrecharge(t, ch.idx, rank, bank, b.openCls, p.Duration(p.TRP))
	}
	if log := ch.dev.cmdLog; log != nil {
		log(t, CmdPrecharge, ch.idx, rank, bank, row)
	}
}

// RefreshDue reports whether rank owes a refresh at t.
func (ch *Channel) RefreshDue(t sim.Time, rank int) bool {
	return ch.ranks[rank].RefreshDue(t)
}

// CanRefresh reports whether REF(rank) may issue at t.
func (ch *Channel) CanRefresh(t sim.Time, rank int) bool {
	return ch.ranks[rank].canRefresh(t)
}

// Refresh issues REF(rank) at t.
func (ch *Channel) Refresh(t sim.Time, rank int) {
	p := &ch.dev.slow
	ch.ranks[rank].refresh(t, p.Duration(p.TRFC), p.Duration(p.TREFI))
	if tel := ch.dev.tel; tel != nil {
		tel.noteRefresh(t, ch.idx, rank, p.Duration(p.TRFC))
	}
	if log := ch.dev.cmdLog; log != nil {
		log(t, CmdRefresh, ch.idx, rank, -1, -1)
	}
}

// CanMigrate reports whether a migration of srcRow may start on
// (rank, bank) at t.
func (ch *Channel) CanMigrate(t sim.Time, rank, bank, srcRow int) bool {
	r := ch.ranks[rank]
	return t >= r.refreshBusyUntil && r.banks[bank].canMigrate(t, srcRow)
}

// Migrate starts a migration of srcRow occupying (rank, bank) for the
// device's configured migration latency and returns its completion
// time. srcRow labels the trace slice only; the command log reports -1.
func (ch *Channel) Migrate(t sim.Time, rank, bank, srcRow int) sim.Time {
	b := ch.ranks[rank].banks[bank]
	b.migrate(t, ch.dev.migrationLatency)
	if tel := ch.dev.tel; tel != nil {
		tel.noteMigrate(t, ch.idx, rank, bank, srcRow, ch.dev.migrationLatency)
	}
	if log := ch.dev.cmdLog; log != nil {
		log(t, CmdMigrate, ch.idx, rank, bank, -1)
	}
	return t + ch.dev.migrationLatency
}
