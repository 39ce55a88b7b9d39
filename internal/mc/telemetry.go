package mc

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/telemetry"
)

// mcTelemetry is the controller's live instrument set: scheduler facts
// only (DRAM command slices and energy belong to the device's
// telemetry). The controller keeps it behind a nil pointer so the
// uninstrumented hot path pays one branch per site. Row misses need no
// instrument: the controller's one Activate site opens a row exactly on
// a miss, so mc.row_misses samples the device's ACT count.
type mcTelemetry struct {
	rowHits      *telemetry.Counter
	rowConflicts *telemetry.Counter
	readLat      *telemetry.Histogram // demand-read enqueue -> burst end, ns
	writeLat     *telemetry.Histogram // write enqueue -> burst end, ns
}

// AttachTelemetry wires the controller's metrics into reg; a nil
// registry leaves the controller uninstrumented (the default). Call
// once at assembly time, before traffic.
func (c *Controller) AttachTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	c.tel = &mcTelemetry{
		rowHits:      reg.Counter("mc.row_hits"),
		rowConflicts: reg.Counter("mc.row_conflicts"),
		readLat:      reg.Histogram("mc.read_latency_ns"),
		writeLat:     reg.Histogram("mc.write_latency_ns"),
	}
	reg.Sample("mc.row_misses", func() int64 { return int64(c.dev.Issued(dram.CmdActivate)) })
	for i, cc := range c.chans {
		cc := cc
		reg.Sample(fmt.Sprintf("mc.queue.ch%d.read", i), func() int64 { return int64(len(cc.readQ)) })
		reg.Sample(fmt.Sprintf("mc.queue.ch%d.write", i), func() int64 { return int64(len(cc.writeQ)) })
		reg.Sample(fmt.Sprintf("mc.queue.ch%d.mig", i), func() int64 { return int64(len(cc.migQ)) })
	}
}
