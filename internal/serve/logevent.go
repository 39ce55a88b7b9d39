package serve

// LogEvent is one job transition, emitted to Options.Log when set.
// dasserve prints the terminal transitions (done, failed, shed) as text
// lines, or with -log-json every transition as one JSON object per line.
// QueueMS and RunMS are read from the job's span: its queue phase, and
// its run and render phases.
//
// Events, in lifecycle order: "admitted" (a fresh job entered the
// queue), "start" (a worker dequeued it), then exactly one of "done",
// "failed", "shed". Cache hits and coalesced waits never run, so they
// produce no events — they are visible in /metrics and /jobs instead.
type LogEvent struct {
	Event   string  `json:"event"`
	Key     string  `json:"key"` // %016x canonical key hash
	Kind    string  `json:"kind,omitempty"`
	QueueMS float64 `json:"queue_ms,omitempty"`
	RunMS   float64 `json:"run_ms,omitempty"`
	Bytes   int     `json:"bytes,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// emit hands one transition to Options.Log, when set.
func (s *Server) emit(ev LogEvent) {
	if s.opt.Log != nil {
		s.opt.Log(ev)
	}
}
