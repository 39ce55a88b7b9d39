package dram

import (
	"repro/internal/sim"
	"repro/internal/timing"
)

// bankState is the row-buffer state of one bank.
type bankState uint8

const (
	bankIdle   bankState = iota // all rows precharged
	bankActive                  // a row is open in the row buffer
)

// Bank models one DRAM bank's row buffer and timing state. All "next*"
// fields are earliest-allowed absolute issue times; the earliest*
// horizons (earliest.go) are the one place that turns them into rules.
type Bank struct {
	state   bankState
	openRow int
	openCls RowClass
	rowPar  *timing.Params // param set of the open (or last opened) row

	nextActivate  sim.Time // same-bank ACT->ACT (tRC) and PRE->ACT (tRP)
	nextRead      sim.Time // tRCD after ACT, tCCD after column commands
	nextWrite     sim.Time
	nextPrecharge sim.Time // tRAS after ACT, tRTP/tWR after columns
	busyUntil     sim.Time // migration/refresh occupancy window
	migOpen       bool     // active-start migration: open row serves hits
}

// State helpers.

// HasOpenRow reports whether a row is open.
func (b *Bank) HasOpenRow() bool { return b.state == bankActive }

// OpenRow returns the open row index; only meaningful when HasOpenRow.
func (b *Bank) OpenRow() int { return b.openRow }

// OpenClass returns the class of the open row.
func (b *Bank) OpenClass() RowClass { return b.openCls }

// activate applies an ACT of row/cls with parameter set p at time t.
func (b *Bank) activate(t sim.Time, row int, cls RowClass, p *timing.Params) {
	b.state = bankActive
	b.openRow = row
	b.openCls = cls
	b.rowPar = p
	b.nextRead = t + p.Duration(p.TRCD)
	b.nextWrite = t + p.Duration(p.TRCD)
	b.nextPrecharge = t + p.Duration(p.TRAS)
	b.nextActivate = t + p.Duration(p.TRC)
}

// read applies a RD at time t and returns the time the data burst ends.
func (b *Bank) read(t sim.Time) sim.Time {
	p := b.rowPar
	if pre := t + p.Duration(p.TRTP); pre > b.nextPrecharge {
		b.nextPrecharge = pre
	}
	if col := t + p.Duration(p.TCCD); col > b.nextRead {
		b.nextRead = col
	}
	if col := t + p.Duration(p.TCCD); col > b.nextWrite {
		b.nextWrite = col
	}
	return t + p.Duration(p.ReadLatency())
}

// write applies a WR at time t and returns the time the data burst ends.
func (b *Bank) write(t sim.Time) sim.Time {
	p := b.rowPar
	burstEnd := t + p.Duration(p.WriteLatency())
	if pre := burstEnd + p.Duration(p.TWR); pre > b.nextPrecharge {
		b.nextPrecharge = pre
	}
	if col := t + p.Duration(p.TCCD); col > b.nextRead {
		b.nextRead = col
	}
	if col := t + p.Duration(p.TCCD); col > b.nextWrite {
		b.nextWrite = col
	}
	return burstEnd
}

// precharge applies a PRE at time t.
func (b *Bank) precharge(t sim.Time) {
	p := b.rowPar
	b.state = bankIdle
	if act := t + p.Duration(p.TRP); act > b.nextActivate {
		b.nextActivate = act
	}
}

// migrate occupies the bank for d starting at t. If the source row is
// open (active start), it keeps serving reads until the swap completes;
// either way the bank ends precharged at t+d.
func (b *Bank) migrate(t sim.Time, d sim.Time) {
	b.busyUntil = t + d
	if b.busyUntil > b.nextActivate {
		b.nextActivate = b.busyUntil
	}
	if b.state == bankActive {
		b.migOpen = true
	}
}

// blockUntil forbids any command before t (used by refresh).
func (b *Bank) blockUntil(t sim.Time) {
	if t > b.nextActivate {
		b.nextActivate = t
	}
	if t > b.busyUntil {
		b.busyUntil = t
	}
}
