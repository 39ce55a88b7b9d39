package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/jobtrace"
)

// DefaultProgressInterval is the SSE frame period when Options leaves it
// zero. Frames sample counters the simulation already maintains, so the
// period trades client freshness against frame volume only — it cannot
// perturb the simulation.
const DefaultProgressInterval = 200 * time.Millisecond

// handleMetrics serves the registry in Prometheus text exposition
// format. Rendering happens under the telemetry lock, and the encoder
// sorts families, so repeated scrapes of an idle server are
// byte-identical.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tmu.Lock()
	defer s.tmu.Unlock()
	telemetry.EncodePrometheus(w, s.reg)
}

// handleKey is canonicalize-without-running: POST the same body as /run
// and get back the key a run would have, so clients can subscribe to
// /jobs/<key>/events before (or while) submitting the job itself.
func (s *Server) handleKey(w http.ResponseWriter, r *http.Request) {
	spec, serr := s.readJob(r)
	if serr != nil {
		writeError(w, serr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"key\":%q,\"kind\":%q}\n", spec.KeyHex(), spec.KindString())
}

// handleJobsPath dispatches everything under /jobs/: the Perfetto track
// dump, a single span snapshot, and the SSE progress stream.
//
//	GET /jobs/trace         completed spans as trace-event JSON
//	GET /jobs/<key>         the job's lifecycle span snapshot
//	GET /jobs/<key>/events  SSE progress stream
func (s *Server) handleJobsPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if rest == "trace" {
		w.Header().Set("Content-Type", "application/json")
		s.jt.EncodeTrace(w)
		return
	}
	key, sub, _ := strings.Cut(rest, "/")
	switch sub {
	case "":
		s.handleJobSpan(w, key)
	case "events":
		s.handleJobEvents(w, r, key)
	default:
		writeError(w, &Error{Status: http.StatusNotFound, Kind: KindBadRequest,
			Msg: fmt.Sprintf("unknown /jobs/ path %q (want /jobs/<key>, /jobs/<key>/events or /jobs/trace)", rest)})
	}
}

// handleJobSpan reports the span of the job a cached or in-flight entry
// holds; a failed job has left the cache, so its span is found in the
// recorder's completed ring while it is there.
func (s *Server) handleJobSpan(w http.ResponseWriter, key string) {
	var snap jobtrace.Snapshot
	ok := true
	if e := s.lookupEntry(key); e != nil {
		snap = e.span.Snapshot()
	} else {
		snap, ok = s.jt.Lookup(key)
	}
	if !ok {
		writeError(w, &Error{Status: http.StatusNotFound, Kind: KindBadRequest,
			Msg: fmt.Sprintf("no span recorded for key %q", key)})
		return
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		writeError(w, &Error{Status: http.StatusInternalServerError, Kind: KindInternal, Msg: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// lookupEntry resolves a %016x key hash to its cache entry.
func (s *Server) lookupEntry(key string) *entry {
	h, err := strconv.ParseUint(key, 16, 64)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byHash[h]
}

// handleJobEvents streams progress frames for one job as server-sent
// events. The first frame is written immediately (a subscriber always
// sees at least one frame, however fast the job), then one frame per
// ProgressInterval, then a final frame plus "event: done" when the job
// resolves. The stream ends on job completion, job failure, or client
// disconnect. Frames read the session's live counters — monotonic
// values advanced at host observation points — so a subscriber cannot
// perturb the simulation and figure bytes stay identical with or
// without watchers.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, key string) {
	e := s.lookupEntry(key)
	if e == nil {
		writeError(w, &Error{Status: http.StatusNotFound, Kind: KindBadRequest,
			Msg: fmt.Sprintf("no job known for key %q (jobs appear on admission; failed jobs are evicted)", key)})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &Error{Status: http.StatusInternalServerError, Kind: KindInternal,
			Msg: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Key", key)

	s.tmu.Lock()
	s.gSSE.Add(1)
	s.tmu.Unlock()
	defer func() {
		s.tmu.Lock()
		s.gSSE.Add(-1)
		s.tmu.Unlock()
	}()

	interval := s.opt.ProgressInterval
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	seq := 0
	send := func() bool {
		f := e.prog.frame(seq, e.span.Snapshot())
		seq++
		data, err := json.Marshal(f)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		fl.Flush()
		s.count(s.cFrames)
		return true
	}
	finish := func() {
		send()
		fmt.Fprint(w, "event: done\ndata: {}\n\n")
		fl.Flush()
	}
	if !send() {
		return
	}
	// A job that resolved before (or during) the subscription still gets
	// its terminal frame and clean close.
	select {
	case <-e.done:
		finish()
		return
	default:
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-e.done:
			finish()
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			if !send() {
				return
			}
		}
	}
}
