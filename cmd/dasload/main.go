// Command dasload is an open-loop load generator for dasserve. It fires
// -n POST /run requests at an arrival rate that ramps up over -ramp,
// cycling through the request bodies given as arguments (so n > #bodies
// guarantees duplicates that exercise the server's singleflight and
// cache), retrying shed and transient failures with capped exponential
// backoff plus jitter, honoring Retry-After.
//
// After the burst it can verify cache semantics: -verify re-requests
// every distinct body twice, asserting the second response is an X-Cache
// hit and both bodies are byte-identical; -assert-hits N requires the
// server's cache-hit counter (from /jobs) to have reached N.
//
// Observability checks ride along: every attempt's latency is recorded
// and reported as p50/p95/p99 per outcome class (miss, hit, coalesced,
// 429, 5xx, error); -follow subscribes to the first body's SSE progress
// stream during the burst and asserts monotonic frames, a clean close
// and that GET /jobs/<key> reports the state the stream ended in;
// -check-metrics scrapes /metrics and validates the Prometheus
// exposition.
//
// Examples:
//
//	dasload -addr localhost:8077 -n 32 '{"figure":"table2"}'
//	dasload -addr localhost:8077 -n 24 -rate 50 -verify -assert-hits 1 \
//	    -follow -check-metrics '{"design":"das","benchmarks":["mcf"]}' @req.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dasload: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "localhost:8077", "dasserve address, or @file to read it from an -addr-file")
		n          = flag.Int("n", 16, "total requests to send")
		rate       = flag.Float64("rate", 20, "steady-state arrival rate, requests/second (open loop)")
		ramp       = flag.Duration("ramp", 2*time.Second, "ramp the arrival rate linearly from 0 to -rate over this long")
		maxInfl    = flag.Int("max-inflight", 64, "client-side cap on concurrent requests")
		retries    = flag.Int("retries", 8, "max retries per request on 429/5xx")
		backoff    = flag.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, full jitter)")
		backoffCap = flag.Duration("backoff-cap", 5*time.Second, "retry backoff ceiling")
		reqTO      = flag.Duration("timeout", 15*time.Minute, "per-attempt HTTP timeout")
		seed       = flag.Int64("seed", 1, "jitter seed")
		verify     = flag.Bool("verify", false, "after the burst, re-request each distinct body twice and assert cache hits return byte-identical responses")
		assertHits = flag.Int("assert-hits", -1, "require the server's serve.cache.hits counter to be at least this (-1 = don't check)")
		follow     = flag.Bool("follow", false, "subscribe to the first body's SSE progress stream during the burst and assert monotonic frames, a clean close and a matching /jobs/<key> state")
		followMin  = flag.Int("follow-min", 1, "with -follow, require at least this many progress frames")
		checkMetr  = flag.Bool("check-metrics", false, "after the burst, scrape /metrics and validate the Prometheus exposition")
	)
	flag.Parse()

	bodies, err := loadBodies(flag.Args())
	if err != nil {
		return err
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: *reqTO}
	lats := newLatencies()

	var followc chan followResult
	if *follow {
		followc = make(chan followResult, 1)
		go func() { followc <- followStream(client, base, bodies[0]) }()
	}

	type outcome struct {
		ok      bool
		status  int
		retries int
		cache   string
		err     error
	}
	results := make(chan outcome, *n)
	sem := make(chan struct{}, *maxInfl)
	start := time.Now()
	for i := 0; i < *n; i++ {
		// Open-loop arrival: the sender never waits for responses, only
		// for the (ramped) inter-arrival gap and the in-flight cap.
		time.Sleep(interArrival(time.Since(start), *rate, *ramp))
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(*seed + int64(i)))
			body := bodies[i%len(bodies)]
			st, cache, tries, _, err := post(client, base, body, *retries, *backoff, *backoffCap, rng, lats)
			results <- outcome{ok: err == nil && st == http.StatusOK, status: st, retries: tries, cache: cache, err: err}
		}(i)
	}

	var ok, failed, totalRetries int
	byCache := map[string]int{}
	for i := 0; i < *n; i++ {
		r := <-results
		totalRetries += r.retries
		if r.ok {
			ok++
			byCache[r.cache]++
		} else {
			failed++
			if r.err != nil {
				log.Printf("request failed: %v", r.err)
			} else {
				log.Printf("request failed: HTTP %d after %d retries", r.status, r.retries)
			}
		}
	}
	fmt.Printf("dasload: %d ok / %d failed in %v (%d retries; miss=%d coalesced=%d hit=%d)\n",
		ok, failed, time.Since(start).Round(time.Millisecond),
		totalRetries, byCache["miss"], byCache["coalesced"], byCache["hit"])
	fmt.Print(lats.report())
	fmt.Print(poolReport(client, base))
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}

	if *follow {
		fr := <-followc
		if fr.err != nil {
			return fmt.Errorf("follow: %w", fr.err)
		}
		fmt.Printf("dasload: followed %s: %d monotonic frames, clean close (final state %s)\n",
			fr.key, fr.frames, fr.state)
		if fr.frames < *followMin {
			return fmt.Errorf("follow: %d frames, want at least %d", fr.frames, *followMin)
		}
	}

	if *verify {
		if err := verifyCache(client, base, bodies); err != nil {
			return err
		}
		fmt.Printf("dasload: verify ok (%d bodies byte-identical on cache hit)\n", len(bodies))
	}
	if *assertHits >= 0 {
		hits, err := cacheHits(client, base)
		if err != nil {
			return err
		}
		if hits < float64(*assertHits) {
			return fmt.Errorf("serve.cache.hits = %.0f, want >= %d", hits, *assertHits)
		}
		fmt.Printf("dasload: cache hits %.0f >= %d\n", hits, *assertHits)
	}
	if *checkMetr {
		n, err := validateMetrics(client, base)
		if err != nil {
			return fmt.Errorf("check-metrics: %w", err)
		}
		fmt.Printf("dasload: /metrics exposition valid (%d families)\n", n)
	}
	return nil
}

// latencies collects per-attempt response times keyed by outcome class:
// the X-Cache disposition for 200s (miss/coalesced/hit), "429", "5xx",
// "4xx" or "error" otherwise.
type latencies struct {
	mu      sync.Mutex
	byClass map[string][]float64 // milliseconds
}

func newLatencies() *latencies { return &latencies{byClass: map[string][]float64{}} }

func (l *latencies) add(class string, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.byClass[class] = append(l.byClass[class], float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// classify maps one attempt's result to its outcome class.
func classify(status int, cache string, err error) string {
	switch {
	case err != nil:
		return "error"
	case status == http.StatusOK:
		if cache == "" {
			return "ok"
		}
		return cache
	case status == http.StatusTooManyRequests:
		return "429"
	case status >= 500:
		return "5xx"
	default:
		return "4xx"
	}
}

// report renders the client-side latency table: count and p50/p95/p99
// per class, classes sorted for stable output.
func (l *latencies) report() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.byClass) == 0 {
		return ""
	}
	classes := make([]string, 0, len(l.byClass))
	for c := range l.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var b strings.Builder
	b.WriteString("dasload: attempt latency by outcome class (ms):\n")
	fmt.Fprintf(&b, "  %-10s %6s %9s %9s %9s\n", "class", "n", "p50", "p95", "p99")
	quantile := func(xs []float64, q float64) string {
		v, err := stats.PercentileErr(xs, q)
		if err != nil {
			return "-" // no samples in this class: undefined, not 0 ms
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, c := range classes {
		xs := l.byClass[c]
		fmt.Fprintf(&b, "  %-10s %6d %9s %9s %9s\n", c, len(xs),
			quantile(xs, 0.50), quantile(xs, 0.95), quantile(xs, 0.99))
	}
	return b.String()
}

type followResult struct {
	key    string
	frames int
	state  string
	err    error
}

// progressFrame mirrors serve.ProgressFrame's wire shape.
type progressFrame struct {
	Seq    int     `json:"seq"`
	State  string  `json:"state"`
	Events uint64  `json:"events"`
	Instrs uint64  `json:"instrs"`
	SimNS  float64 `json:"sim_ns"`
}

// followStream learns body's canonical key from /key, subscribes to its
// SSE progress stream (retrying 404 until the job is admitted), and
// consumes frames until the server's done event, verifying the stream's
// monotonicity contract along the way. Then it checks that /jobs/<key>
// reports the stream's final state.
func followStream(client *http.Client, base, body string) followResult {
	resp, err := client.Post(base+"/key", "application/json", strings.NewReader(body))
	if err != nil {
		return followResult{err: err}
	}
	var keyResp struct {
		Key string `json:"key"`
	}
	err = json.NewDecoder(resp.Body).Decode(&keyResp)
	resp.Body.Close()
	if err != nil {
		return followResult{err: fmt.Errorf("/key: %w", err)}
	}
	if resp.StatusCode != http.StatusOK || keyResp.Key == "" {
		return followResult{err: fmt.Errorf("/key: HTTP %d", resp.StatusCode)}
	}
	res := followResult{key: keyResp.Key}

	// The job only becomes subscribable on admission; poll through the
	// burst's ramp-up.
	deadline := time.Now().Add(time.Minute)
	var stream *http.Response
	for {
		stream, err = client.Get(base + "/jobs/" + keyResp.Key + "/events")
		if err != nil {
			res.err = err
			return res
		}
		if stream.StatusCode == http.StatusOK {
			break
		}
		stream.Body.Close()
		if stream.StatusCode != http.StatusNotFound || time.Now().After(deadline) {
			res.err = fmt.Errorf("subscribe: HTTP %d", stream.StatusCode)
			return res
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer stream.Body.Close()

	var prev progressFrame
	clean := false
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			clean = true
			break
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var f progressFrame
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			res.err = fmt.Errorf("frame %q: %w", data, err)
			return res
		}
		if res.frames > 0 && (f.Seq != prev.Seq+1 || f.Events < prev.Events ||
			f.Instrs < prev.Instrs || f.SimNS < prev.SimNS) {
			res.err = fmt.Errorf("stream not monotonic: %+v -> %+v", prev, f)
			return res
		}
		prev = f
		res.frames++
		res.state = f.State
	}
	if err := sc.Err(); err != nil {
		res.err = err
		return res
	}
	if !clean {
		res.err = fmt.Errorf("stream ended after %d frames without the done event", res.frames)
		return res
	}
	// The stream and /jobs/<key> read one record, the job's span, so
	// they must agree on how the job ended.
	span, err := client.Get(base + "/jobs/" + keyResp.Key)
	if err != nil {
		res.err = err
		return res
	}
	defer span.Body.Close()
	if span.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("/jobs/%s: HTTP %d", keyResp.Key, span.StatusCode)
		return res
	}
	var snap struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(span.Body).Decode(&snap); err != nil {
		res.err = fmt.Errorf("/jobs/%s: %w", keyResp.Key, err)
		return res
	}
	if snap.State != res.state {
		res.err = fmt.Errorf("/jobs/%s reports state %q but the stream ended %q", keyResp.Key, snap.State, res.state)
	}
	return res
}

// validateMetrics scrapes /metrics and runs the self-contained
// exposition validator, returning the family count.
func validateMetrics(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if err := telemetry.ValidateExposition(data); err != nil {
		return 0, err
	}
	return strings.Count(string(data), "# TYPE "), nil
}

// loadBodies resolves the request bodies from args: literal JSON, or
// @path to read a file.
func loadBodies(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("need at least one JSON request body argument (or @file)")
	}
	out := make([]string, 0, len(args))
	for _, a := range args {
		if strings.HasPrefix(a, "@") {
			data, err := os.ReadFile(a[1:])
			if err != nil {
				return nil, err
			}
			a = string(data)
		}
		if !json.Valid([]byte(a)) {
			return nil, fmt.Errorf("request body is not valid JSON: %q", a)
		}
		out = append(out, a)
	}
	return out, nil
}

// baseURL turns -addr (possibly @addr-file) into an http base URL.
func baseURL(addr string) (string, error) {
	if strings.HasPrefix(addr, "@") {
		data, err := os.ReadFile(addr[1:])
		if err != nil {
			return "", err
		}
		addr = strings.TrimSpace(string(data))
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/"), nil
}

// interArrival is the open-loop gap at elapsed time t: the configured
// rate scaled by the ramp fraction (linear from 0, with a floor so the
// very first requests still flow).
func interArrival(t time.Duration, rate float64, ramp time.Duration) time.Duration {
	if rate <= 0 {
		return 0
	}
	frac := 1.0
	if ramp > 0 && t < ramp {
		frac = float64(t) / float64(ramp)
		if frac < 0.1 {
			frac = 0.1
		}
	}
	return time.Duration(float64(time.Second) / (rate * frac))
}

// post sends one request, retrying 429 and 5xx with capped exponential
// backoff and full jitter, honoring Retry-After when the server sends
// one. It returns the final status, the X-Cache disposition, the retry
// count and the response body. Every attempt (including retried ones)
// records its latency into lats under its outcome class.
func post(client *http.Client, base, body string, retries int, backoff, ceil time.Duration, rng *rand.Rand, lats *latencies) (status int, cache string, tries int, data []byte, err error) {
	for attempt := 0; ; attempt++ {
		attemptStart := time.Now()
		var resp *http.Response
		resp, err = client.Post(base+"/run", "application/json", strings.NewReader(body))
		var retryAfter time.Duration
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
			cache = resp.Header.Get("X-Cache")
			lats.add(classify(status, cache, err), time.Since(attemptStart))
			if err == nil && status == http.StatusOK {
				return status, cache, attempt, data, nil
			}
			if !retryable(status) || attempt >= retries {
				return status, cache, attempt, data, err
			}
			if ra, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil {
				retryAfter = time.Duration(ra) * time.Second
			}
		} else {
			lats.add(classify(0, "", err), time.Since(attemptStart))
			if attempt >= retries {
				return 0, "", attempt, nil, err
			}
		}
		delay := backoff << attempt
		if delay > ceil || delay <= 0 {
			delay = ceil
		}
		delay = time.Duration(rng.Int63n(int64(delay) + 1)) // full jitter
		if delay < retryAfter {
			delay = retryAfter
		}
		time.Sleep(delay)
	}
}

func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// verifyCache re-requests every distinct body twice, back to back, and
// asserts (a) the second response is served from the cache and (b) the
// two bodies are byte-identical — the service's exactness contract.
func verifyCache(client *http.Client, base string, bodies []string) error {
	seen := map[string]bool{}
	for _, b := range bodies {
		if seen[b] {
			continue
		}
		seen[b] = true
		rng := rand.New(rand.NewSource(0))
		_, _, _, first, err := post(client, base, b, 4, 100*time.Millisecond, time.Second, rng, nil)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		_, cache, _, second, err := post(client, base, b, 4, 100*time.Millisecond, time.Second, rng, nil)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if cache != "hit" {
			return fmt.Errorf("verify: second request for %q was %q, want cache hit", b, cache)
		}
		if string(first) != string(second) {
			return fmt.Errorf("verify: cached response for %q differs from the first (%d vs %d bytes)", b, len(first), len(second))
		}
	}
	return nil
}

// poolReport scrapes /jobs and renders the server-side machine-pool
// line: how often jobs ran on recycled simulation machines and the
// pool's high-water standing memory. Empty when the server predates the
// pool, runs with pooling disabled, or the scrape fails (the load
// report must not fail over an optional stat).
func poolReport(client *http.Client, base string) string {
	resp, err := client.Get(base + "/jobs")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var jobs struct {
		Pool *struct {
			HitRate        float64 `json:"hit_rate"`
			Hits           uint64  `json:"hits"`
			Misses         uint64  `json:"misses"`
			Drops          uint64  `json:"drops"`
			HighWaterBytes int64   `json:"high_water_bytes"`
		} `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil || jobs.Pool == nil {
		return ""
	}
	p := jobs.Pool
	return fmt.Sprintf("dasload: server machine pool: hit rate %.1f%% (%d hits / %d misses, %d drops), high water %.1f MB\n",
		p.HitRate*100, p.Hits, p.Misses, p.Drops, float64(p.HighWaterBytes)/(1<<20))
}

// cacheHits reads the server's hit counter from /jobs.
func cacheHits(client *http.Client, base string) (float64, error) {
	resp, err := client.Get(base + "/jobs")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var jobs struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		return 0, fmt.Errorf("/jobs: %w", err)
	}
	return jobs.Metrics["serve.cache.hits"], nil
}
