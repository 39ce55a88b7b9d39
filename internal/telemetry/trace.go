package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// TraceRecorder buffers one run's Chrome trace events (DRAM commands,
// migrations, fault events) for later export. Like every instrument in
// this package it is nil-receiver-safe: a nil recorder is the disabled
// state and recording into it is a no-op branch.
//
// Tracks: the exporter maps one run to one Perfetto "process" (pid) and
// each track — typically one per DRAM bank — to a "thread" (tid). The
// recorder is the only source of track ids: Track names a new track and
// returns the next id in call order, so each emitter allocates the
// tracks it writes to and no two emitters can share an id.
//
// Recording appends to a slice in engine order (single-threaded per
// run), so export is deterministic. The buffer is capped: beyond
// MaxEvents the recorder counts drops instead of growing, and the
// exporter emits the drop count as run metadata rather than silently
// truncating.
type TraceRecorder struct {
	// Label identifies the run (same key as its Timeline).
	Label string
	// MaxEvents caps the buffer (DefaultMaxEvents when 0).
	MaxEvents int

	events  []traceEvent
	tracks  []string // track names, indexed by tid
	dropped uint64
}

// DefaultMaxEvents bounds one run's trace buffer (~56 B/event, so the
// default is roughly 110 MB of host memory at worst).
const DefaultMaxEvents = 2_000_000

// tracePhase is the Chrome trace-event "ph" field.
type tracePhase byte

const (
	phaseComplete  tracePhase = 'X' // duration event (ts + dur)
	phaseInstant   tracePhase = 'i' // instant event
	phaseFlowStart tracePhase = 's' // flow arrow origin
	phaseFlowEnd   tracePhase = 'f' // flow arrow destination
	phaseCounter   tracePhase = 'C' // counter sample (args:{value})
)

// traceEvent is one buffered event. The recorder stores names, never
// copies or concatenates them, so an emitter that passes static strings
// (every simulation emitter does) allocates nothing beyond slice growth.
type traceEvent struct {
	name  string
	ph    tracePhase
	tsPS  int64
	durPS int64
	tid   int
	// row is an optional "row" argument; negative means absent. Flow
	// events reuse it as the flow id (pairing a start with its end).
	row int64
}

// NewTraceRecorder returns an enabled recorder for a run label.
func NewTraceRecorder(label string) *TraceRecorder {
	return &TraceRecorder{Label: label}
}

// Track names a new track (Perfetto thread) for this run and returns
// its id: 0 for the first call, then 1, 2, ... in call order. A nil
// recorder allocates nothing and returns -1.
func (r *TraceRecorder) Track(name string) int {
	if r == nil {
		return -1
	}
	r.tracks = append(r.tracks, name)
	return len(r.tracks) - 1
}

// Duration records a complete event spanning [tsPS, tsPS+durPS) on
// track tid; row < 0 omits the argument.
func (r *TraceRecorder) Duration(name string, tsPS, durPS int64, tid int, row int64) {
	r.record(traceEvent{name: name, ph: phaseComplete, tsPS: tsPS, durPS: durPS, tid: tid, row: row})
}

// Instant records a point event on track tid; row < 0 omits the
// argument.
func (r *TraceRecorder) Instant(name string, tsPS int64, tid int, row int64) {
	r.record(traceEvent{name: name, ph: phaseInstant, tsPS: tsPS, tid: tid, row: row})
}

// FlowStart records the origin of a flow arrow at tsPS on track tid.
// Perfetto binds flow events by (name, id): emit a FlowEnd with the
// same name and id on the destination track, and place both inside
// enclosing duration slices so the arrow has anchors to attach to.
func (r *TraceRecorder) FlowStart(name string, tsPS int64, tid int, id int64) {
	r.record(traceEvent{name: name, ph: phaseFlowStart, tsPS: tsPS, tid: tid, row: id})
}

// FlowEnd records the destination of a flow arrow (see FlowStart).
func (r *TraceRecorder) FlowEnd(name string, tsPS int64, tid int, id int64) {
	r.record(traceEvent{name: name, ph: phaseFlowEnd, tsPS: tsPS, tid: tid, row: id})
}

// Counter records a counter sample at tsPS on track tid: the Perfetto
// UI renders the samples of one (name, tid) series as a filled area
// chart over time.
func (r *TraceRecorder) Counter(name string, tsPS int64, tid int, value int64) {
	r.record(traceEvent{name: name, ph: phaseCounter, tsPS: tsPS, tid: tid, row: value})
}

func (r *TraceRecorder) record(e traceEvent) {
	if r == nil {
		return
	}
	max := r.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	if len(r.events) >= max {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Len reports buffered events.
func (r *TraceRecorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dropped reports events discarded after the buffer cap was reached.
func (r *TraceRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// EncodeTrace writes recorders as one Chrome trace-event JSON document
// (the Perfetto UI and chrome://tracing both load it). Runs sort by
// label and map to pids 1..n; timestamps convert from picoseconds of
// simulated time to the format's microseconds. Output is
// byte-deterministic for a deterministic simulation.
func EncodeTrace(w io.Writer, recs []*TraceRecorder) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	live := make([]*TraceRecorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Label < live[j].Label })

	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	for pid, r := range live {
		pid := pid + 1
		name := r.Label
		if r.dropped > 0 {
			name = fmt.Sprintf("%s [%d events dropped]", name, r.dropped)
		}
		emit(fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid, jsonString(name)))
		for tid, track := range r.tracks {
			emit(fmt.Sprintf(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid, tid, jsonString(track)))
		}
		for i := range r.events {
			e := &r.events[i]
			var b strings.Builder
			b.WriteString(`{"name":`)
			b.WriteString(jsonString(e.name))
			b.WriteString(`,"ph":"`)
			b.WriteByte(byte(e.ph))
			b.WriteString(`","ts":`)
			b.WriteString(formatMicros(e.tsPS))
			if e.ph == phaseComplete {
				b.WriteString(`,"dur":`)
				b.WriteString(formatMicros(e.durPS))
			}
			if e.ph == phaseInstant {
				b.WriteString(`,"s":"t"`)
			}
			flow := e.ph == phaseFlowStart || e.ph == phaseFlowEnd
			if flow {
				// Flow events bind by (cat, name, id); bp:"e" attaches the
				// arrow head to the enclosing slice rather than the next one.
				b.WriteString(`,"cat":"flow","id":"`)
				b.WriteString(strconv.FormatInt(e.row, 10))
				b.WriteString(`"`)
				if e.ph == phaseFlowEnd {
					b.WriteString(`,"bp":"e"`)
				}
			}
			b.WriteString(`,"pid":`)
			b.WriteString(strconv.Itoa(pid))
			b.WriteString(`,"tid":`)
			b.WriteString(strconv.Itoa(e.tid))
			if e.ph == phaseCounter {
				// Counters reuse row as the sampled value and may
				// legitimately be zero (or, defensively, negative).
				b.WriteString(`,"args":{"value":`)
				b.WriteString(strconv.FormatInt(e.row, 10))
				b.WriteString(`}`)
			} else if e.row >= 0 && !flow {
				b.WriteString(`,"args":{"row":`)
				b.WriteString(strconv.FormatInt(e.row, 10))
				b.WriteString(`}`)
			}
			b.WriteString(`}`)
			emit(b.String())
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// formatMicros renders picoseconds as the trace format's microseconds,
// exact to the picosecond (10^-6 us) without float rounding.
func formatMicros(ps int64) string {
	whole, frac := ps/1_000_000, ps%1_000_000
	if frac == 0 {
		return strconv.FormatInt(whole, 10)
	}
	s := strconv.FormatInt(whole, 10) + "." + fmt.Sprintf("%06d", frac)
	return strings.TrimRight(s, "0")
}

// jsonString renders a JSON string literal (labels contain no control
// characters in practice, but quote defensively).
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
