package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
)

// The serve-closedloop workload: a dasserve child (-workers 2) and two
// closed-loop clients, one connection each. Nine requests in ten go to a
// hot set of design runs warmed before the window, so they are served
// from the exact-result cache; the tenth is a design run with a fresh
// seed, which misses the cache and simulates.
type serveSizes struct {
	instr uint64 // instructions per core of every requested run
	hot   int    // hot-set size
}

var serveScale = map[string]serveSizes{
	"full":  {instr: 300_000, hot: 16},
	"smoke": {instr: 30_000, hot: 4},
}

const serveClients = 2

// designBody is the request every op sends: DAS-DRAM over mcf against its
// Standard baseline, seeded so distinct seeds are distinct cache keys.
func designBody(seed uint64) string {
	return fmt.Sprintf(`{"design":"das","benchmarks":["mcf"],"config":{"seed":%d}}`, seed)
}

func hotSeed(seed uint64, i int) uint64 { return splitmix64(seed<<8 ^ uint64(i)) }

func missSeed(seed uint64, client, j int) uint64 {
	return splitmix64(splitmix64(seed^0x5EED5EED) ^ uint64(client)<<40 ^ uint64(j))
}

// isMiss says whether request j of a client is a cache miss: exactly
// one in ten, staggered between the two clients.
func isMiss(client, j int) bool { return (j+5*client)%10 == 9 }

// server is one running dasserve child.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	debug   string // http://host:port of the -debug endpoint
	debugc  chan string
	logDone chan struct{}
	mu      sync.Mutex
	logTail []string
}

// startServer spawns dasserve and returns once /readyz answers 200, with
// the time that took.
func startServer(o options, instr uint64, idx int) (*server, time.Duration, error) {
	addrFile := filepath.Join(o.workdir, fmt.Sprintf("dasserve-%d-%d.addr", os.Getpid(), idx))
	os.Remove(addrFile)
	defer os.Remove(addrFile)
	cmd := exec.Command(o.dasserve, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", "2", "-instr", fmt.Sprint(instr), "-debug", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, debugc: make(chan string, 1), logDone: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dasserve: %w", err)
	}
	go s.readLog(stderr)
	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		return nil, 0, fmt.Errorf("%w; dasserve log:\n%s", err, s.tail())
	}
	for s.base == "" {
		if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			s.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		select {
		case <-s.logDone:
			return fail(fmt.Errorf("dasserve exited before listening"))
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("dasserve did not listen within 30s"))
		}
	}
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("dasserve not ready within 30s"))
		}
		time.Sleep(time.Millisecond)
	}
	ready := time.Since(start)
	select {
	case d := <-s.debugc:
		s.debug = "http://" + d
	case <-time.After(10 * time.Second):
		return fail(fmt.Errorf("dasserve did not report its debug address"))
	}
	return s, ready, nil
}

// readLog keeps the tail of the server's log and picks up the debug
// endpoint address it announces.
func (s *server) readLog(r io.Reader) {
	defer close(s.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "debug endpoint on http://"); ok {
			select {
			case s.debugc <- strings.TrimSuffix(rest, "/metrics"):
			default:
			}
		}
		s.mu.Lock()
		s.logTail = append(s.logTail, line)
		if len(s.logTail) > 20 {
			s.logTail = s.logTail[1:]
		}
		s.mu.Unlock()
	}
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logTail, "\n")
}

// stop drains the server with SIGTERM (killing it after a minute), waits
// for it to exit and returns its peak resident set in KB.
func (s *server) stop() (int64, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.logDone:
	case <-time.After(time.Minute):
		s.cmd.Process.Kill()
		<-s.logDone
	}
	err := s.cmd.Wait()
	var rss int64
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	if err != nil {
		return rss, fmt.Errorf("dasserve: %w\n%s", err, s.tail())
	}
	return rss, nil
}

func (s *server) getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reqResult is one request's outcome.
type reqResult struct {
	miss bool
	ms   float64
	end  time.Duration // completion, from the start of the burst
	err  string        // empty when the response was correct
}

// client is one closed-loop connection with its deterministic request
// sequence.
type client struct {
	id   int
	http *http.Client
	rng  *rand.Rand
	j    int
	// firstMiss is the seed and body of the client's first miss, re-run
	// in process after the window to check the served bytes.
	firstMissSeed uint64
	firstMiss     []byte
}

func newClient(id int, seed uint64) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, http: &http.Client{Transport: tr, Timeout: 5 * time.Minute},
		rng: rand.New(rand.NewPCG(seed, uint64(id)))}
}

func (c *client) post(url, body string) (status int, xcache string, data []byte, err error) {
	resp, err := c.http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, err
}

// loop sends requests back to back until stop is closed.
func (c *client) loop(s *server, seed uint64, hot [][]byte, tr *tracer, parent int, start time.Time, stop <-chan struct{}) []reqResult {
	var out []reqResult
	for {
		select {
		case <-stop:
			return out
		default:
		}
		j := c.j
		c.j++
		miss := isMiss(c.id, j)
		var body string
		idx := 0
		if miss {
			body = designBody(missSeed(seed, c.id, j))
		} else {
			idx = c.rng.IntN(len(hot))
			body = designBody(hotSeed(seed, idx))
		}
		t0 := time.Now()
		sp := tr.begin("POST /run", "serve", parent, fmt.Sprintf("c%d-%d", c.id, j), c.id+1)
		st, xc, data, err := c.post(s.base+"/run", body)
		tr.end(sp)
		r := reqResult{miss: miss, ms: float64(time.Since(t0).Nanoseconds()) / 1e6, end: time.Since(start)}
		switch {
		case err != nil:
			r.err = err.Error()
		case st != http.StatusOK:
			r.err = fmt.Sprintf("status %d: %s", st, bytes.TrimSpace(data))
		case miss && xc != "miss":
			r.err = fmt.Sprintf("fresh seed served as X-Cache %q", xc)
		case miss && !bytes.HasPrefix(data, []byte("### Run")):
			r.err = "miss body is not a design run"
		case !miss && xc != "hit":
			r.err = fmt.Sprintf("hot request served as X-Cache %q", xc)
		case !miss && !bytes.Equal(data, hot[idx]):
			r.err = fmt.Sprintf("hit body %d differs from its miss body", idx)
		}
		if r.err != "" {
			r.err = fmt.Sprintf("client %d request %d: %s", c.id, j, r.err)
		}
		if miss && r.err == "" && c.firstMiss == nil {
			c.firstMissSeed, c.firstMiss = missSeed(seed, c.id, j), data
		}
		out = append(out, r)
	}
}

// burstResult is one closed-loop burst: its requests, wall time and the
// control-kernel speed samples taken at its sub-window boundaries.
type burstResult struct {
	reqs   []reqResult
	wall   float64
	speeds []speedSample
}

type speedSample struct {
	at    float64 // seconds from the start of the burst
	speed float64
}

// burst runs both clients for d (or, when until is non-nil, until it is
// closed, d then being the expected length) while sampling the control
// kernel every d/subWindows.
func burst(s *server, ctl *control, clients []*client, seed uint64, hot [][]byte, tr *tracer, name string, d time.Duration, until <-chan struct{}) burstResult {
	ph := tr.begin(name, "serve", -1, name, 0)
	defer tr.end(ph)
	stop := make(chan struct{})
	results := make([][]reqResult, len(clients))
	var br burstResult
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			results[i] = c.loop(s, seed, hot, tr, ph, start, stop)
		}(i, c)
	}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(d / subWindows)
		defer tick.Stop()
		for {
			br.speeds = append(br.speeds, speedSample{time.Since(start).Seconds(), ctl.speed()})
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	if until != nil {
		<-until
	} else {
		time.Sleep(d)
	}
	close(stop)
	wg.Wait()
	<-sampled
	br.wall = time.Since(start).Seconds()
	br.speeds = append(br.speeds, speedSample{br.wall, ctl.speed()})
	for _, r := range results {
		br.reqs = append(br.reqs, r...)
	}
	return br
}

// speedAt interpolates the control speed at t seconds into the burst.
func (b *burstResult) speedAt(t float64) float64 {
	sp := b.speeds
	for i := 1; i < len(sp); i++ {
		if span := sp[i].at - sp[i-1].at; t <= sp[i].at && span > 0 {
			f := max(0, t-sp[i-1].at) / span
			return sp[i-1].speed + f*(sp[i].speed-sp[i-1].speed)
		}
	}
	return sp[len(sp)-1].speed
}

// memstats is the part of the server's /debug/vars the ledger reads.
type memstats struct {
	MemStats struct {
		TotalAlloc    uint64  `json:"TotalAlloc"`
		GCCPUFraction float64 `json:"GCCPUFraction"`
	} `json:"memstats"`
}

// jobsDoc is the part of the server's /jobs the report reads.
type jobsDoc struct {
	CacheHitRatio float64                       `json:"cache_hit_ratio"`
	Quantiles     map[string]map[string]float64 `json:"quantiles"`
	Pool          *struct {
		HitRate float64 `json:"hit_rate"`
	} `json:"pool"`
}

// verification is the in-process re-run of one served miss.
type verification struct {
	results []runResult
	runMS   []float64
	wallNS  float64
	events  float64
	instrs  uint64
}

// verifyMiss re-runs a served miss request in process and checks the
// served body is byte-identical to the rendered figure.
func verifyMiss(instr, seed uint64, served []byte, tr *tracer, v *verification) error {
	cfg := config.Scaled()
	cfg.InstrPerCore = instr
	cfg.Seed = seed
	s := exp.NewSession(cfg)
	s.Parallelism = 1
	set := []string{"mcf"}
	for _, d := range []core.Design{core.Standard, core.DAS} {
		key := runKey(d, set)
		t0 := time.Now()
		sp := tr.begin("Session.Cached "+key, "exp", -1, fmt.Sprintf("seed%d", seed), 0)
		res, err := s.Cached(cfg, d, set)
		tr.end(sp)
		el := time.Since(t0)
		if err != nil {
			return err
		}
		v.results = append(v.results, runResult{d, set, res})
		v.runMS = append(v.runMS, float64(el.Nanoseconds())/1e6)
		v.wallNS += float64(el.Nanoseconds())
		v.events += float64(res.Events)
	}
	f, err := s.DesignFigure(core.DAS, set)
	if err != nil {
		return err
	}
	v.instrs += s.InstrsRetired()
	if !bytes.Equal([]byte(f.Render()), served) {
		return fmt.Errorf("served miss body for seed %d differs from an in-process re-run", seed)
	}
	return nil
}

// subWindows is how many equal slices of a burst the service's rates
// are taken over, and how many control samples it takes.
const subWindows = 10

// burstMetrics computes the end-to-end metrics of a burst at the nominal
// machine speed (control.go): rates are medians over subWindows equal
// slices by completion time, each divided by the control speed at its
// middle; latencies are multiplied by the control speed at completion.
func burstMetrics(b *burstResult, perMiss float64) map[string]float64 {
	sub := b.wall / subWindows
	n := make([]int, subWindows)
	misses := make([]int, subWindows)
	var ms, missMS []float64
	for _, r := range b.reqs {
		k := min(int(r.end.Seconds()/sub), subWindows-1)
		n[k]++
		x := r.ms * b.speedAt(r.end.Seconds())
		ms = append(ms, x)
		if r.miss {
			missMS = append(missMS, x)
			if r.err == "" {
				misses[k]++
			}
		}
	}
	var rps, ips []float64
	for k := range n {
		speed := b.speedAt((float64(k) + 0.5) * sub)
		rps = append(rps, float64(n[k])/sub/speed)
		ips = append(ips, float64(misses[k])*perMiss/sub/speed)
	}
	return map[string]float64{
		"instr_per_s": median(ips),
		"req_per_s":   median(rps),
		"req_ms_p50":  quantile(ms, 0.5),
		"miss_ms_p90": quantile(missMS, 0.9),
	}
}

// runServe is the serve-closedloop workload.
func runServe(o options) (*outcome, error) {
	sz := serveScale[o.scale]
	want, err := referenceDigests(o)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(1)
	}
	oc := &outcome{metrics: map[string]float64{}, digests: map[string]string{}}
	fail := func(msg string) {
		oc.failed++
		oc.failures = append(oc.failures, msg)
	}

	var setups []float64
	var srv *server
	ctl := newControl()
	for start := time.Now(); srv == nil; {
		speed := ctl.speed()
		sp := tr.begin("spawn dasserve", "serve", -1, fmt.Sprint(len(setups)), 0)
		s, ready, err := startServer(o, sz.instr, len(setups))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready.Seconds()*speed)
		if moreSetups(len(setups), start) {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(i, o.seed)
		defer clients[i].http.CloseIdleConnections()
	}

	// Warm the hot set: every body is a miss now and a hit from here on.
	hot := make([][]byte, sz.hot)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := c.id; i < sz.hot; i += serveClients {
				st, xc, data, err := c.post(srv.base+"/run", designBody(hotSeed(o.seed, i)))
				mu.Lock()
				oc.attempted++
				if err != nil || st != http.StatusOK || xc != "miss" {
					fail(fmt.Sprintf("warming hot body %d: status %d, X-Cache %q, err %v", i, st, xc, err))
				}
				hot[i] = data
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for i, b := range hot {
		oc.digests[fmt.Sprintf("hot%02d", i)] = digest(string(b))
	}
	if want != nil {
		for _, d := range checkDigests(oc.digests, want, "hot set") {
			fail(d)
		}
	}

	window := time.Duration(o.seconds * float64(time.Second))
	var untraced, traced burstResult
	var ms0, ms1 memstats
	var profile []byte
	if !o.trace {
		untraced = burst(srv, ctl, clients, o.seed, hot, nil, "burst", window, nil)
	} else {
		// Half the window untraced, then the rest with the server's CPU
		// profile running and spans on: the pair gives the tracing overhead.
		untraced = burst(srv, ctl, clients, o.seed, hot, nil, "burst", window/2, nil)
		if err := srv.getJSON(srv.debug+"/debug/vars", &ms0); err != nil {
			return nil, err
		}
		secs := max(1, int((window-window/2+time.Second/2)/time.Second))
		done := make(chan struct{})
		var perr error
		go func() {
			defer close(done)
			resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", srv.debug, secs))
			if err != nil {
				perr = err
				return
			}
			defer resp.Body.Close()
			profile, perr = io.ReadAll(resp.Body)
		}()
		traced = burst(srv, ctl, clients, o.seed, hot, tr, "traced burst", time.Duration(secs)*time.Second, done)
		if perr != nil {
			return nil, fmt.Errorf("server profile: %w", perr)
		}
		if err := srv.getJSON(srv.debug+"/debug/vars", &ms1); err != nil {
			return nil, err
		}
	}
	var jobs jobsDoc
	if err := srv.getJSON(srv.base+"/jobs", &jobs); err != nil {
		return nil, err
	}
	rssKB, err := srv.stop()
	stopped = true
	if err != nil {
		return nil, err
	}

	tracedMisses := 0
	reqs := untraced.reqs
	for _, r := range append(reqs, traced.reqs...) {
		oc.attempted++
		if r.err != "" {
			fail(r.err)
		}
	}
	for _, r := range traced.reqs {
		if r.miss && r.err == "" {
			tracedMisses++
		}
	}

	var v verification
	for _, c := range clients {
		oc.attempted++
		if c.firstMiss == nil {
			fail(fmt.Sprintf("client %d served no miss to verify", c.id))
			continue
		}
		if err := verifyMiss(sz.instr, c.firstMissSeed, c.firstMiss, tr, &v); err != nil {
			fail(err.Error())
		}
	}
	if v.instrs == 0 {
		return nil, fmt.Errorf("no served miss could be re-run")
	}
	perMiss := float64(v.instrs) / float64(len(v.results)/2)

	m := burstMetrics(&untraced, perMiss)
	for k, x := range m {
		oc.metrics[k] = x
	}
	oc.metrics["setup_s"] = median(setups)
	oc.metrics["peak_rss_mb"] = float64(rssKB) / 1024
	var hitMS, missMS []float64
	for _, r := range reqs {
		if r.miss {
			missMS = append(missMS, r.ms)
		} else {
			hitMS = append(hitMS, r.ms)
		}
	}
	var speeds []float64
	for _, x := range untraced.speeds {
		speeds = append(speeds, x.speed)
	}
	oc.notes = append(oc.notes,
		fmt.Sprintf("%d requests (%d misses) in %.2fs over %d closed-loop connections; unscaled hit p50/p99 %.3f/%.3f ms, miss p50/p90 %.1f/%.1f ms",
			len(reqs), len(missMS), untraced.wall, serveClients,
			quantile(hitMS, 0.5), quantile(hitMS, 0.99), quantile(missMS, 0.5), quantile(missMS, 0.9)),
		fmt.Sprintf("control speed samples %s", fmtFloats(speeds)),
		fmt.Sprintf("setup_s samples %s", fmtFloats(setups)),
		fmt.Sprintf("server /jobs: cache_hit_ratio %.4f, queue wait p90 %.0f us, job run p50 %.0f us (log2 buckets)",
			jobs.CacheHitRatio, jobs.Quantiles["serve.queue.wait_us"]["p90"], jobs.Quantiles["serve.job.run_us"]["p50"]))

	if o.trace {
		for k, x := range exactCounts(v.results) {
			oc.metrics[k] = x
		}
		dcfg := config.Scaled()
		dcfg.InstrPerCore, dcfg.Seed = sz.instr, clients[0].firstMissSeed
		drv, err := runDrivers(dcfg, "mcf", o.scale, tr)
		if err != nil {
			return nil, fmt.Errorf("replay drivers: %w", err)
		}
		for k, x := range drv {
			oc.metrics[k] = x
		}
		prof := map[string]int64{}
		if err := foldProfile(profile, prof); err != nil {
			return nil, err
		}
		addProfile(oc, prof)
		oc.metrics["sim.host_ns_per_event"] = v.wallNS / v.events
		oc.metrics["exp.run_ms_p50"] = median(v.runMS)
		oc.metrics["runtime.gc_cpu_frac"] = ms1.MemStats.GCCPUFraction
		oc.metrics["runtime.alloc_mb_per_minstr"] = float64(ms1.MemStats.TotalAlloc-ms0.MemStats.TotalAlloc) / (1 << 20) /
			(float64(max(tracedMisses, 1)) * perMiss / 1e6)
		if jobs.Pool != nil {
			oc.metrics["exp.pool_hit_rate"] = jobs.Pool.HitRate
		}
		oc.metrics["trace_overhead_frac"] = 1 - (float64(len(traced.reqs))/traced.wall)/(float64(len(reqs))/untraced.wall)
		oc.spans = tr.all()
	}
	return oc, nil
}
