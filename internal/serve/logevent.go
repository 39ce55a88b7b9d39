package serve

// LogEvent is one job transition, emitted to Options.Log when set.
// dasserve prints the terminal transitions (done, failed, shed) as text
// lines. QueueMS and RunMS are read from the job's span: its queue
// phase, and its run and render phases.
//
// Events, in lifecycle order: "admitted" (a fresh job entered the
// queue), "start" (a worker dequeued it), then exactly one of "done",
// "failed", "shed". Cache hits and coalesced waits never run, so they
// produce no events — they are visible in /metrics and /jobs instead.
type LogEvent struct {
	Event   string
	Key     string // %016x canonical key hash
	Kind    string
	QueueMS float64
	RunMS   float64
	Bytes   int
	Error   string
}

// emit hands one transition to Options.Log, when set.
func (s *Server) emit(ev LogEvent) {
	if s.opt.Log != nil {
		s.opt.Log(ev)
	}
}
