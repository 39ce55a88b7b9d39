package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Parent int           `json:"parent"` // index of the causing span, -1 for a root
	ID     string        `json:"id"`     // run or request identifier
	Proc   int           `json:"proc"`   // 1 = benchmark process, 2 = workload child
	Track  int           `json:"track"`  // thread lane (client index for serve)
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	proc  int
	spans []span
}

func newTracer(proc int) *tracer { return &tracer{t0: time.Now(), proc: proc} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int, id string, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: now,
		Parent: parent, ID: id, Proc: t.proc, Track: track})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// adopt appends a child process's spans, shifting their clock by the
// child's start offset and their parent links past the spans held so far.
func (t *tracer) adopt(spans []span, childStart time.Time) {
	if t == nil {
		return
	}
	off := childStart.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.Start += off
		s.End += off
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach time.Duration
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
			}
			reach = max(reach, iv[1])
		}
		self[s.Layer] += s.End - s.Start - covered
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete
// events), which Perfetto and chrome://tracing load.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]string{"layer": s.Layer}
		if s.ID != "" {
			args["id"] = s.ID
		}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		evs = append(evs, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: s.Proc, TID: s.Track, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
