package core

import (
	"repro/internal/telemetry"
)

// coreTelemetry carries the manager's trace hook (nil = off). All of the
// manager's scalar activity is already counted in Stats, so metrics are
// pure snapshot-time samples; only fault events — which are rare and
// carry a time — record live, as trace instants on a dedicated track.
type coreTelemetry struct {
	trace     *telemetry.TraceRecorder
	faultsTID int
}

// AttachTelemetry exposes the manager's counters on reg (sampled from
// Stats at snapshot time, zero hot-path cost) and wires fault events
// into trace as instant events on a "faults" track. Call once at
// assembly time; nil registry and recorder leave the manager
// uninstrumented (the default).
func (m *Manager) AttachTelemetry(reg *telemetry.Registry, trace *telemetry.TraceRecorder) {
	if reg.Enabled() {
		reg.Sample("core.promotions", func() int64 { return int64(m.Stats.Promotions) })
		reg.Sample("core.slow_triggers", func() int64 { return int64(m.Stats.SlowTriggers) })
		reg.Sample("core.table_fetches", func() int64 { return int64(m.Stats.TableFetches) })
		reg.Sample("core.table_writes", func() int64 { return int64(m.Stats.TableWrites) })
		// Attempts = commit invocations; every commit either succeeds
		// (Promotions) or fails (Faults.MigFailures).
		reg.Sample("core.migrations.attempted", func() int64 {
			return int64(m.Stats.Promotions + m.Stats.Faults.MigFailures)
		})
		reg.Sample("core.migrations.completed", func() int64 { return int64(m.Stats.Promotions) })
		reg.Sample("core.migrations.failed", func() int64 { return int64(m.Stats.Faults.MigFailures) })
		reg.Sample("core.faults.mig_retries", func() int64 { return int64(m.Stats.Faults.MigRetries) })
		reg.Sample("core.faults.pinned_rows", func() int64 { return int64(m.Stats.Faults.PinnedRows) })
		reg.Sample("core.faults.fenced_groups", func() int64 { return int64(m.Stats.Faults.FencedGroups) })
		reg.Sample("core.faults.weak_services", func() int64 { return int64(m.Stats.Faults.WeakServices) })
		reg.Sample("core.faults.tag_corruptions", func() int64 { return int64(m.Stats.Faults.TagCorruptions) })
		reg.Sample("core.faults.table_refetches", func() int64 { return int64(m.Stats.Faults.TableRefetches) })
		reg.Sample("core.faults.breaker_trips", func() int64 { return int64(m.Stats.Faults.MigBreakerTrips) })
		if tc := m.tagCache; tc != nil {
			reg.Sample("core.tagcache.lookups", func() int64 { return int64(tc.Lookups) })
			reg.Sample("core.tagcache.hits", func() int64 { return int64(tc.Hits) })
		}
		if f := m.filter; f != nil {
			reg.Sample("core.filter.rejects", func() int64 { return int64(f.Rejects) })
		}
	}
	if trace != nil {
		m.tel = &coreTelemetry{trace: trace, faultsTID: trace.Track("faults")}
	}
}

// noteFault records one handled fault as a trace instant. name must be a
// static string; row < 0 omits the argument.
func (m *Manager) noteFault(name string, row int64) {
	if m.tel == nil {
		return
	}
	m.tel.trace.Instant(name, int64(m.eng.Now()), m.tel.faultsTID, row)
}
