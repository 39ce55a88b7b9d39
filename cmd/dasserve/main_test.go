package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestJobTimeoutFlag: -job-timeout 0 means no deadline, as its help
// says, while the default gives every job one.
func TestJobTimeoutFlag(t *testing.T) {
	for _, c := range []struct {
		args []string
		want bool // the job's context has a deadline
	}{
		{nil, true},
		{[]string{"-job-timeout", "0"}, false},
	} {
		st, err := parse(c.args)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan bool, 1)
		st.opts.Runner = func(ctx context.Context, _ *serve.Job) ([]byte, error) {
			_, ok := ctx.Deadline()
			got <- ok
			return []byte("ok"), nil
		}
		srv := serve.New(st.opts)
		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(`{"figure":"table2"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: HTTP %d", c.args, resp.StatusCode)
		}
		if ok := <-got; ok != c.want {
			t.Errorf("%v: job has a deadline = %v, want %v", c.args, ok, c.want)
		}
	}
}

// TestTextLog pins the free-text log: one line for each terminal
// transition, nothing for admitted and start.
func TestTextLog(t *testing.T) {
	const key = "0ed51e07e9ab6fc0"
	for _, c := range []struct {
		ev   serve.LogEvent
		want string
	}{
		{serve.LogEvent{Event: "admitted", Key: key, Kind: "table2"}, ""},
		{serve.LogEvent{Event: "start", Key: key, Kind: "table2", QueueMS: 3}, ""},
		{serve.LogEvent{Event: "done", Key: key, Kind: "table2", QueueMS: 2.6, RunMS: 1234.4, Bytes: 42},
			"job 0ed51e07e9ab6fc0 done in 1.234s (queued 3ms, 42 bytes)"},
		{serve.LogEvent{Event: "failed", Key: key, Kind: "table2", QueueMS: 0.2, RunMS: 30, Error: "serve: timeout: job exceeded the 30ms deadline"},
			"job 0ed51e07e9ab6fc0 failed after 30ms (queued 0s): serve: timeout: job exceeded the 30ms deadline"},
		{serve.LogEvent{Event: "shed", Key: key, Kind: "table2"}, "shed 0ed51e07e9ab6fc0 (queue full)"},
	} {
		if got := textLine(c.ev); got != c.want {
			t.Errorf("%s: got %q, want %q", c.ev.Event, got, c.want)
		}
	}
}

// TestPoolMBFlag: -pool-mb sets the pool budget in MB, 0 keeps the
// default, and a negative budget is refused (the pool cannot be turned
// off).
func TestPoolMBFlag(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want int64
	}{{"0", 0}, {"64", 64 << 20}} {
		st, err := parse([]string{"-pool-mb", c.arg})
		if err != nil || st.opts.PoolBytes != c.want {
			t.Errorf("-pool-mb %s: PoolBytes %d, err %v; want %d", c.arg, st.opts.PoolBytes, err, c.want)
		}
	}
	if _, err := parse([]string{"-pool-mb", "-1"}); err == nil {
		t.Error("-pool-mb -1 accepted")
	}
}

// TestDebugEndpointContract pins what the repository benchmark
// (bench/serve.go) reads from -debug: it finds the address in the
// logged "debug endpoint on http://" line, stripping an optional
// "/metrics", then reads /debug/vars for memstats and profiles through
// /debug/pprof. The endpoint serves no /metrics of its own.
func TestDebugEndpointContract(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	pub, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Shutdown(context.Background())

	_, rest, ok := strings.Cut(strings.TrimSpace(logged.String()), "debug endpoint on http://")
	if !ok {
		t.Fatalf("no debug announcement in log %q", logged.String())
	}
	addr := strings.TrimSuffix(rest, "/metrics")
	if _, _, err := net.SplitHostPort(addr); err != nil {
		t.Fatalf("announced %q, want a bare host:port: %v", rest, err)
	}
	base := "http://" + addr
	get := func(path string) (int, []byte) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		return resp.StatusCode, body.Bytes()
	}
	code, body := get("/debug/vars")
	var vars struct {
		Memstats *json.RawMessage `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); code != http.StatusOK || err != nil || vars.Memstats == nil {
		t.Errorf("/debug/vars: HTTP %d, err %v, memstats present %v", code, err, vars.Memstats != nil)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: HTTP %d, want 200", code)
	}
	if code, _ := get("/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics: HTTP %d, want 404", code)
	}
}
