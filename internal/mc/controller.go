package mc

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/sim"
)

// Config parameterizes the controller.
type Config struct {
	// WindowSize is the per-channel scheduling window (Table 1: 32).
	WindowSize int
	// WriteHigh/WriteLow are the write-queue drain watermarks.
	WriteHigh, WriteLow int
	// StarvationLimit promotes the oldest request over row hits once it
	// has waited this long, bounding FR-FCFS starvation.
	StarvationLimit sim.Time
	// ClosedPage switches from Table 1's open-page policy to a
	// closed-page policy: rows are precharged as soon as no queued
	// request targets them (an ablation knob; the paper's row-buffer
	// locality argument assumes open page).
	ClosedPage bool
}

// DefaultConfig returns the Table 1 controller configuration.
func DefaultConfig() Config {
	return Config{
		WindowSize:      32,
		WriteHigh:       32,
		WriteLow:        8,
		StarvationLimit: sim.FromNS(1000),
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.WindowSize <= 0 {
		return fmt.Errorf("mc: window size must be positive")
	}
	if c.WriteHigh <= 0 || c.WriteLow < 0 || c.WriteLow >= c.WriteHigh {
		return fmt.Errorf("mc: watermarks must satisfy 0 <= low < high")
	}
	if c.StarvationLimit <= 0 {
		return fmt.Errorf("mc: starvation limit must be positive")
	}
	return nil
}

// Stats counts the controller's demand traffic since Reset. Translation
// (Meta) traffic and migrations are counted once, by the device's
// command tally.
type Stats struct {
	Reads, Writes   uint64
	ServedRowBuffer uint64
	ServedFast      uint64
	ServedSlow      uint64
	ReadLatencySum  sim.Time // enqueue -> data burst end, demand reads
	// ReadLatHist buckets demand-read latencies (ns): <50, <100, <200,
	// <500, <1000, >=1000.
	ReadLatHist [6]uint64
}

// Controller is the multi-channel memory controller.
type Controller struct {
	cfg   Config
	eng   *sim.Engine
	dev   *dram.Device
	chans []*chanCtl

	// tel is the live instrument set (nil = telemetry off, the default;
	// see AttachTelemetry).
	tel *mcTelemetry

	// sched is the controller-level part of the per-build-tag tick
	// scheduler (empty for the mc_polltick polling build).
	sched ctlSched

	Stats Stats
}

// New builds a controller for dev: it allocates the per-channel queues
// and bank indexes, and Reset sets their run state. The core count is
// unused; the controller counts demand traffic for all cores together.
func New(cfg Config, eng *sim.Engine, dev *dram.Device, _ int) (*Controller, error) {
	c := &Controller{eng: eng, dev: dev}
	geo := dev.Geometry()
	for i := 0; i < dev.Channels(); i++ {
		c.chans = append(c.chans, &chanCtl{
			ctl:            c,
			idx:            i,
			ch:             dev.Channel(i),
			reserved:       make([]bool, geo.Ranks*geo.Banks),
			refreshPending: make([]bool, geo.Ranks),
			pendR:          make([]int32, geo.Ranks*geo.Banks),
			pendW:          make([]int32, geo.Ranks*geo.Banks),
		})
	}
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Device returns the attached DRAM model.
func (c *Controller) Device() *dram.Device { return c.dev }

// Reset rewinds the controller to its just-constructed state for
// in-place reuse (exp.SystemPool), adopting cfg's window and watermark
// settings; it is also the second half of New. The engine and device
// are retained — reset them first — and the channel count is pinned by
// the device's geometry. Queues empty with their backing arrays kept
// (entries zeroed so released requests are collectable), the per-bank
// window indexes and reservations clear, and both per-build-tag tick
// schedulers initialize. Telemetry detaches; re-attach per run.
func (c *Controller) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	c.cfg = cfg
	c.tel = nil
	c.Stats = Stats{}
	clock := sim.NewClock(c.dev.ClockPeriod())
	c.initCtlSched(c.eng, clock)
	for _, cc := range c.chans {
		clearPtrs(&cc.readQ)
		clearPtrs(&cc.writeQ)
		clearPtrs(&cc.migQ)
		clearPtrs(&cc.traced)
		clear(cc.reserved)
		clear(cc.refreshPending)
		clear(cc.pendR)
		clear(cc.pendW)
		cc.drain = false
		cc.initSched(c.eng, clock)
	}
	return nil
}

// clearPtrs empties a pointer-typed queue keeping its backing array,
// zeroing the entries so the pooled slice does not pin dead requests.
func clearPtrs[T any](q *[]*T) {
	clear(*q)
	*q = (*q)[:0]
}

// Enqueue adds a translated request to its channel's queue. Writes are
// posted: Done fires immediately.
func (c *Controller) Enqueue(req *Request) {
	cc := c.chans[req.Coord.Channel]
	req.enqueued = c.eng.Now()
	if req.Trace != nil {
		req.Trace.StampEnqueue(req.enqueued)
		if !req.Write {
			cc.traced = append(cc.traced, req)
		}
	}
	if req.Write {
		cc.writeQ = append(cc.writeQ, req)
		if len(cc.writeQ) <= c.cfg.WindowSize {
			cc.notePend(req, 1)
		}
		if req.Done != nil {
			done := req.Done
			req.Done = nil
			done(ServiceRowBuffer) // posted; kind recorded at issue
		}
	} else {
		cc.readQ = append(cc.readQ, req)
		if len(cc.readQ) <= c.cfg.WindowSize {
			cc.notePend(req, 1)
		}
	}
	cc.wake()
}

// Migrate schedules a migration (promotion swap) on the given bank. The
// bank is reserved: new activations are withheld, the open row is closed,
// and once precharged the migration occupies the bank for the device's
// migration latency. done fires at completion.
func (c *Controller) Migrate(channel, rank, bank, row int, done func()) {
	cc := c.chans[channel]
	cc.migQ = append(cc.migQ, &migOp{
		channel: channel, rank: rank, bank: bank, row: row,
		done: done, enqueued: c.eng.Now(),
	})
	cc.reserved[rank*c.dev.Geometry().Banks+bank] = true
	cc.wake()
}

// QueueDepths reports total queued reads and writes (diagnostics).
func (c *Controller) QueueDepths() (reads, writes int) {
	for _, cc := range c.chans {
		reads += len(cc.readQ)
		writes += len(cc.writeQ)
	}
	return
}

// Describe renders the controller's queued work — oldest read/write per
// channel with its age, plus pending migrations — for watchdog stall
// reports.
func (c *Controller) Describe() string {
	now := c.eng.Now()
	var b strings.Builder
	for i, cc := range c.chans {
		if len(cc.readQ) == 0 && len(cc.writeQ) == 0 && len(cc.migQ) == 0 {
			continue
		}
		fmt.Fprintf(&b, "channel %d: %d reads, %d writes, %d migrations\n",
			i, len(cc.readQ), len(cc.writeQ), len(cc.migQ))
		if len(cc.readQ) > 0 {
			r := cc.readQ[0]
			fmt.Fprintf(&b, "  oldest read: rank %d bank %d row %d class %v core %d, waiting %.0f ns\n",
				r.Coord.Rank, r.Coord.Bank, r.Coord.Row, r.Class, r.Core, (now - r.enqueued).NS())
		}
		if len(cc.writeQ) > 0 {
			w := cc.writeQ[0]
			fmt.Fprintf(&b, "  oldest write: rank %d bank %d row %d, waiting %.0f ns\n",
				w.Coord.Rank, w.Coord.Bank, w.Coord.Row, (now - w.enqueued).NS())
		}
		for _, op := range cc.migQ {
			fmt.Fprintf(&b, "  migration: rank %d bank %d row %d, waiting %.0f ns\n",
				op.rank, op.bank, op.row, (now - op.enqueued).NS())
		}
	}
	return b.String()
}

// PendingMigrations reports queued migration operations.
func (c *Controller) PendingMigrations() int {
	n := 0
	for _, cc := range c.chans {
		n += len(cc.migQ)
	}
	return n
}

// chanCtl schedules one channel.
type chanCtl struct {
	ctl *Controller
	idx int
	ch  *dram.Channel

	readQ  []*Request
	writeQ []*Request
	migQ   []*migOp

	// traced holds queued reads carrying a reqtrace span, so refresh and
	// migration occupancy can be credited to the requests they block
	// without scanning the whole read queue (empty unless sampling is on).
	traced []*Request

	reserved       []bool // rank*banks+bank -> migration reservation
	refreshPending []bool // rank -> refresh overdue, drain it
	drain          bool   // write-drain mode

	// pendR/pendW index the scheduling window by bank: entry
	// rank*banks+bank counts windowed reads/writes targeting that bank.
	// Window membership is positional (the first WindowSize queue
	// entries), so the counts depend only on enqueue/remove order, never
	// on bank state — pendingRowHit and closeIdleRows consult them to
	// skip whole banks without scanning the window.
	pendR, pendW []int32

	// sched is the per-build-tag tick scheduler: next-event by default,
	// per-cycle polling under -tags mc_polltick.
	sched chanSched
}

// bankIndex flattens (rank, bank) for the reservation and pending maps.
func (cc *chanCtl) bankIndex(rank, bank int) int {
	return rank*cc.ctl.dev.Geometry().Banks + bank
}

// notePend adjusts the window index when a request enters (+1) or leaves
// (-1) the scheduling window.
func (cc *chanCtl) notePend(req *Request, delta int32) {
	idx := cc.bankIndex(req.Coord.Rank, req.Coord.Bank)
	if req.Write {
		cc.pendW[idx] += delta
	} else {
		cc.pendR[idx] += delta
	}
}

// idleQuiet reports whether the channel has nothing at all to do at
// time t: no queued demand or migrations, no refresh pending or due on
// any rank, and (closed page) no rows left open. Both tick schedulers
// stop ticking exactly when this holds — sharing the predicate keeps
// their stop (and therefore restart-order) behavior identical.
func (cc *chanCtl) idleQuiet(t sim.Time) bool {
	if len(cc.readQ) > 0 || len(cc.writeQ) > 0 || len(cc.migQ) > 0 {
		return false
	}
	for r := 0; r < cc.ch.Ranks(); r++ {
		if cc.refreshPending[r] || t >= cc.ch.Rank(r).NextRefreshDue() {
			return false
		}
	}
	if cc.ctl.cfg.ClosedPage {
		for r := 0; r < cc.ch.Ranks(); r++ {
			for b := 0; b < cc.ctl.dev.Geometry().Banks; b++ {
				if cc.ch.Rank(r).Bank(b).HasOpenRow() {
					return false
				}
			}
		}
	}
	return true
}

// earliestRefreshDue returns the earliest future refresh deadline on the
// channel; a fully stopped scheduler arranges to wake then.
func (cc *chanCtl) earliestRefreshDue() sim.Time {
	var earliest sim.Time = -1
	for r := 0; r < cc.ch.Ranks(); r++ {
		due := cc.ch.Rank(r).NextRefreshDue()
		if earliest < 0 || due < earliest {
			earliest = due
		}
	}
	return earliest
}

// bankReserved reports whether (rank, bank) is held for a migration.
func (cc *chanCtl) bankReserved(rank, bank int) bool {
	return cc.reserved[rank*cc.ctl.dev.Geometry().Banks+bank]
}

// bankBlocked reports whether (rank, bank) refuses new demand row
// commands at time t. A migration reservation only hard-blocks once its
// grace window has expired: before that, demand scheduling proceeds
// normally and the migration starts opportunistically (it still has
// priority whenever the bank is ready for it).
func (cc *chanCtl) bankBlocked(rank, bank int, t sim.Time) bool {
	if !cc.bankReserved(rank, bank) {
		return false
	}
	for _, op := range cc.migQ {
		if op.rank == rank && op.bank == bank {
			return t-op.enqueued >= migGrace
		}
	}
	return true
}

// dispatch issues at most one command on this channel for the cycle at
// time t, in strict priority order (refresh, migration, row-hit columns,
// row commands, closed-page precharges), and reports whether a command
// issued. Both tick schedulers (next-event and mc_polltick polling) run
// exactly this sequence, so the command stream is decided here alone.
func (cc *chanCtl) dispatch(t sim.Time) bool {
	if cc.issueRefresh(t) {
		return true
	}
	if cc.issueMigration(t) {
		return true
	}
	cc.updateDrainMode()
	if cc.issueColumn(t) {
		return true
	}
	if cc.issueRowCommand(t) {
		return true
	}
	if cc.ctl.cfg.ClosedPage && cc.closeIdleRows(t) {
		return true
	}
	return false
}

// closeIdleRows implements the closed-page policy: precharge any open
// row with no queued demand for it.
func (cc *chanCtl) closeIdleRows(t sim.Time) bool {
	for r := 0; r < cc.ch.Ranks(); r++ {
		for b := 0; b < cc.ctl.dev.Geometry().Banks; b++ {
			bank := cc.ch.Rank(r).Bank(b)
			if !bank.HasOpenRow() || cc.bankReserved(r, b) {
				continue
			}
			if cc.pendingRowHit(r, b, bank.OpenRow()) {
				continue
			}
			if cc.ch.CanPrecharge(t, r, b) {
				cc.ch.Precharge(t, r, b)
				return true
			}
		}
	}
	return false
}

// issueRefresh gives overdue refreshes absolute priority: the rank is
// drained (open banks precharged) and refreshed.
func (cc *chanCtl) issueRefresh(t sim.Time) bool {
	for r := 0; r < cc.ch.Ranks(); r++ {
		if !cc.refreshPending[r] {
			if t >= cc.ch.Rank(r).NextRefreshDue() {
				cc.refreshPending[r] = true
			} else {
				continue
			}
		}
		if cc.ch.CanRefresh(t, r) {
			cc.ch.Refresh(t, r)
			cc.refreshPending[r] = false
			if len(cc.traced) > 0 {
				p := cc.ctl.dev.SlowParams()
				cc.creditBlocked(r, -1, p.Duration(p.TRFC), true)
			}
			return true
		}
		for b := 0; b < cc.ctl.dev.Geometry().Banks; b++ {
			bank := cc.ch.Rank(r).Bank(b)
			if bank.HasOpenRow() && cc.ch.CanPrecharge(t, r, b) {
				cc.ch.Precharge(t, r, b)
				return true
			}
		}
		// Rank is draining (tRAS etc. pending); hold its new commands but
		// let other ranks use the cycle.
	}
	return false
}

// migGrace is how long a pending migration lets queued row hits drain
// before forcing its bank closed. Promotions follow an access to the
// very row being promoted, so sibling hits are usually in flight;
// slamming the row shut immediately costs more than the migration
// itself.
const migGrace = 600 * sim.Nanosecond

// issueMigration drives pending migrations on reserved banks.
func (cc *chanCtl) issueMigration(t sim.Time) bool {
	for qi, op := range cc.migQ {
		if cc.refreshPending[op.rank] {
			continue
		}
		if cc.ch.CanMigrate(t, op.rank, op.bank, op.row) {
			end := cc.ch.Migrate(t, op.rank, op.bank, op.row)
			if len(cc.traced) > 0 {
				cc.creditBlocked(op.rank, op.bank, end-t, false)
			}
			cc.migQ = append(cc.migQ[:qi], cc.migQ[qi+1:]...)
			cc.unreserve(op)
			done := op.done
			if done != nil {
				cc.ctl.eng.ScheduleAt(end, done)
			}
			return true
		}
		bank := cc.ch.Rank(op.rank).Bank(op.bank)
		if bank.HasOpenRow() && bank.OpenRow() != op.row && cc.ch.CanPrecharge(t, op.rank, op.bank) {
			// A different row blocks the swap; drain its queued hits for a
			// grace period, then close it.
			if t-op.enqueued < migGrace && cc.pendingRowHit(op.rank, op.bank, bank.OpenRow()) {
				continue
			}
			cc.ch.Precharge(t, op.rank, op.bank)
			return true
		}
	}
	return false
}

// creditBlocked attributes a refresh (whole rank, bank < 0) or migration
// (one bank) occupancy window of length d to every traced read still
// waiting on the blocked bank(s). Convention: all queued traced reads
// are credited, including those beyond the scheduling window — they are
// blocked by the occupancy all the same.
func (cc *chanCtl) creditBlocked(rank, bank int, d sim.Time, refresh bool) {
	em := cc.ctl.dev.EnergyModel()
	for _, req := range cc.traced {
		if req.Coord.Rank != rank || (bank >= 0 && req.Coord.Bank != bank) || !req.Trace.Waiting() {
			continue
		}
		if refresh {
			req.Trace.CreditRefresh(d, em.RefPJ)
		} else {
			req.Trace.CreditMigration(d, em.MigPJ)
		}
	}
}

// dropTraced removes req from the traced list once its data burst is
// scheduled (no further bank-wait credit applies).
func (cc *chanCtl) dropTraced(req *Request) {
	for i, r := range cc.traced {
		if r == req {
			cc.traced = append(cc.traced[:i], cc.traced[i+1:]...)
			return
		}
	}
}

// pendingRowHit reports whether any windowed request targets the open
// row of (rank, bank). The window index answers the common case — no
// windowed request touches the bank at all — without a scan.
func (cc *chanCtl) pendingRowHit(rank, bank, row int) bool {
	if idx := cc.bankIndex(rank, bank); cc.pendR[idx] == 0 && cc.pendW[idx] == 0 {
		return false
	}
	for _, req := range cc.window(cc.readQ) {
		if req.Coord.Rank == rank && req.Coord.Bank == bank && req.Coord.Row == row {
			return true
		}
	}
	for _, req := range cc.window(cc.writeQ) {
		if req.Coord.Rank == rank && req.Coord.Bank == bank && req.Coord.Row == row {
			return true
		}
	}
	return false
}

// unreserve releases a bank reservation unless another queued migration
// targets the same bank.
func (cc *chanCtl) unreserve(op *migOp) {
	for _, other := range cc.migQ {
		if other.rank == op.rank && other.bank == op.bank {
			return
		}
	}
	cc.reserved[op.rank*cc.ctl.dev.Geometry().Banks+op.bank] = false
}

// updateDrainMode applies the write watermarks.
func (cc *chanCtl) updateDrainMode() {
	if !cc.drain && len(cc.writeQ) >= cc.ctl.cfg.WriteHigh {
		cc.drain = true
	}
	if cc.drain && len(cc.writeQ) <= cc.ctl.cfg.WriteLow {
		cc.drain = false
	}
}

// window returns the scheduling window over q.
func (cc *chanCtl) window(q []*Request) []*Request {
	if len(q) > cc.ctl.cfg.WindowSize {
		return q[:cc.ctl.cfg.WindowSize]
	}
	return q
}

// schedulable reports whether req's bank accepts new demand commands at
// time t.
func (cc *chanCtl) schedulable(req *Request, t sim.Time) bool {
	return !cc.refreshPending[req.Coord.Rank] && !cc.bankBlocked(req.Coord.Rank, req.Coord.Bank, t)
}

// starving reports whether the oldest read has waited past the limit, in
// which case row hits yield to it. A request whose bank is held by a
// migration or refresh cannot be served no matter what, so it must not
// freeze the channel: scheduling proceeds normally around it.
func (cc *chanCtl) starving(t sim.Time) bool {
	return len(cc.readQ) > 0 &&
		t-cc.readQ[0].enqueued > cc.ctl.cfg.StarvationLimit &&
		cc.schedulable(cc.readQ[0], t)
}

// issueColumn tries to issue a row-hit column command (first half of
// FR-FCFS). Writes take priority in drain mode; otherwise reads first and
// writes only opportunistically when no read is queued. A starving oldest
// read narrows the window to itself so younger row hits stop overtaking
// it (but it can still issue its own column command).
func (cc *chanCtl) issueColumn(t sim.Time) bool {
	if cc.starving(t) {
		return cc.issueColumnFrom(t, cc.readQ[:1], false)
	}
	if cc.drain {
		return cc.issueColumnFrom(t, cc.writeQ, true) || cc.issueColumnFrom(t, cc.readQ, false)
	}
	if cc.issueColumnFrom(t, cc.readQ, false) {
		return true
	}
	if len(cc.readQ) == 0 && len(cc.writeQ) > 0 {
		return cc.issueColumnFrom(t, cc.writeQ, true)
	}
	return false
}

// issueColumnFrom issues the oldest row-hit request from q. Row hits are
// allowed on banks reserved for migration (the row is open anyway and
// the hit delays nothing the migration needs); only an overdue refresh
// blocks them.
func (cc *chanCtl) issueColumnFrom(t sim.Time, q []*Request, isWrite bool) bool {
	for _, req := range cc.window(q) {
		if cc.refreshPending[req.Coord.Rank] {
			continue
		}
		bank := cc.ch.Rank(req.Coord.Rank).Bank(req.Coord.Bank)
		if !bank.HasOpenRow() || bank.OpenRow() != req.Coord.Row {
			continue
		}
		if isWrite {
			if !cc.ch.CanWrite(t, req.Coord.Rank, req.Coord.Bank) {
				continue
			}
			end := cc.ch.Write(t, req.Coord.Rank, req.Coord.Bank)
			if tel := cc.ctl.tel; tel != nil {
				tel.writeLat.Observe(uint64((end - req.enqueued) / sim.Nanosecond))
			}
		} else {
			if !cc.ch.CanRead(t, req.Coord.Rank, req.Coord.Bank) {
				continue
			}
			end := cc.ch.Read(t, req.Coord.Rank, req.Coord.Bank)
			if tel := cc.ctl.tel; tel != nil {
				tel.readLat.Observe(uint64((end - req.enqueued) / sim.Nanosecond))
			}
			if req.Trace != nil {
				cls := cc.ch.Rank(req.Coord.Rank).Bank(req.Coord.Bank).OpenClass()
				req.Trace.StampRead(t, end, cc.ctl.dev.EnergyModel().RdPJ[cls])
				// Lets reqtrace link a Perfetto flow arrow from the core's
				// REQ slice into this bank's RD slice.
				req.Trace.SetBankTID(cc.ctl.dev.BankTrack(cc.idx, req.Coord.Rank, req.Coord.Bank))
				cc.dropTraced(req)
			}
			cc.completeRead(req, end)
		}
		cc.account(req, isWrite)
		cc.remove(req, isWrite)
		if isWrite && req.Release != nil {
			// Posted writes already fired Done at enqueue; leaving the
			// write queue is the controller's last touch.
			req.Release()
		}
		return true
	}
	return false
}

// issueRowCommand serves the oldest request needing a PRE or ACT (second
// half of FR-FCFS). Drain mode reverses the read/write priority; outside
// drain mode writes only open rows when no read is waiting.
func (cc *chanCtl) issueRowCommand(t sim.Time) bool {
	if cc.starving(t) {
		return cc.issueRowCommandFrom(t, cc.readQ[:1])
	}
	if cc.drain {
		return cc.issueRowCommandFrom(t, cc.writeQ) || cc.issueRowCommandFrom(t, cc.readQ)
	}
	if cc.issueRowCommandFrom(t, cc.readQ) {
		return true
	}
	if len(cc.readQ) == 0 {
		return cc.issueRowCommandFrom(t, cc.writeQ)
	}
	return false
}

// issueRowCommandFrom issues a PRE or ACT for the oldest conflicting
// request in q.
func (cc *chanCtl) issueRowCommandFrom(t sim.Time, q []*Request) bool {
	for _, req := range cc.window(q) {
		if !cc.schedulable(req, t) {
			continue
		}
		bank := cc.ch.Rank(req.Coord.Rank).Bank(req.Coord.Bank)
		if bank.HasOpenRow() {
			if bank.OpenRow() == req.Coord.Row {
				continue // row hit handled by issueColumn
			}
			if cc.ch.CanPrecharge(t, req.Coord.Rank, req.Coord.Bank) {
				cls := bank.OpenClass()
				cc.ch.Precharge(t, req.Coord.Rank, req.Coord.Bank)
				if tel := cc.ctl.tel; tel != nil {
					tel.rowConflicts.Inc()
				}
				if req.Trace != nil {
					req.Trace.StampPre(t, cc.ctl.dev.EnergyModel().PrePJ[cls])
				}
				return true
			}
			continue
		}
		if cc.ch.CanActivate(t, req.Coord.Rank, req.Coord.Bank, req.Class) {
			cc.ch.Activate(t, req.Coord.Rank, req.Coord.Bank, req.Coord.Row, req.Class)
			req.firstOpen = true
			if req.Trace != nil {
				req.Trace.StampAct(t, cc.ctl.dev.EnergyModel().ActPJ[req.Class])
			}
			return true
		}
	}
	return false
}

// completeRead schedules the request's Done at the data burst end.
func (cc *chanCtl) completeRead(req *Request, end sim.Time) {
	if !req.Meta {
		lat := end - req.enqueued
		cc.ctl.Stats.ReadLatencySum += lat
		ns := lat.NS()
		switch {
		case ns < 50:
			cc.ctl.Stats.ReadLatHist[0]++
		case ns < 100:
			cc.ctl.Stats.ReadLatHist[1]++
		case ns < 200:
			cc.ctl.Stats.ReadLatHist[2]++
		case ns < 500:
			cc.ctl.Stats.ReadLatHist[3]++
		case ns < 1000:
			cc.ctl.Stats.ReadLatHist[4]++
		default:
			cc.ctl.Stats.ReadLatHist[5]++
		}
	}
	if req.Done != nil {
		req.doneKind = cc.serviceKind(req)
		cc.ctl.eng.ScheduleCallAt(end, fireDone, req, nil)
	} else if req.Release != nil {
		// No completion to wait for: the slot is free as soon as the
		// column command issues.
		req.Release()
	}
}

// serviceKind classifies how req was served.
func (cc *chanCtl) serviceKind(req *Request) ServiceKind {
	if !req.firstOpen {
		return ServiceRowBuffer
	}
	if req.Class == dram.RowFast {
		return ServiceFast
	}
	return ServiceSlow
}

// account counts a demand access in Stats at issue time (the device's
// tally counts translation traffic).
func (cc *chanCtl) account(req *Request, isWrite bool) {
	if req.Meta {
		return
	}
	s := &cc.ctl.Stats
	if isWrite {
		s.Writes++
	} else {
		s.Reads++
	}
	switch cc.serviceKind(req) {
	case ServiceRowBuffer:
		s.ServedRowBuffer++
	case ServiceFast:
		s.ServedFast++
	case ServiceSlow:
		s.ServedSlow++
	}
}

// remove deletes req from its queue and maintains the window index:
// requests are only ever issued (and hence removed) from inside the
// scheduling window, so the departure frees a window slot that the
// request at position WindowSize, if any, slides into.
func (cc *chanCtl) remove(req *Request, isWrite bool) {
	q := &cc.readQ
	if isWrite {
		q = &cc.writeQ
	}
	for i, r := range *q {
		if r == req {
			cc.notePend(req, -1)
			if len(*q) > cc.ctl.cfg.WindowSize {
				cc.notePend((*q)[cc.ctl.cfg.WindowSize], 1)
			}
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}
