// Command dasserve exposes the deterministic DAS simulator as an HTTP
// service. POST a figure or design request to /run and the body comes
// back as the same byte-stable text dasbench would print; identical
// requests are deduplicated in flight and served from an exact result
// cache thereafter.
//
// Robustness is the point of the binary: a bounded worker pool and
// admission queue (full queue → 429 + Retry-After, never unbounded
// memory), per-job deadlines, panic isolation (a crashing job is a
// structured 500; its siblings and the server survive), and graceful
// drain on SIGINT/SIGTERM.
//
// Examples:
//
//	dasserve -addr :8077
//	dasserve -addr 127.0.0.1:0 -addr-file /tmp/dasserve.addr -workers 2
//	curl -s -X POST localhost:8077/run -d '{"figure":"table2"}'
//	curl -s -X POST localhost:8077/run -d '{"design":"das","benchmarks":["mcf"]}'
//	curl -s localhost:8077/jobs
//	curl -s -X POST localhost:8077/key -d '{"figure":"7b"}'   # -> {"key":...}
//	curl -N localhost:8077/jobs/<key>/events                  # SSE progress
//	curl -s localhost:8077/metrics                            # Prometheus
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dasserve: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// settings is dasserve's command line: the server's options, and where
// to listen, serve the debug endpoint and how long to drain.
type settings struct {
	opts                    serve.Options
	addr, addrFile, debugAt string
	drainTO                 time.Duration
}

// parse reads the command line into settings.
func parse(args []string) (settings, error) {
	var st settings
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&st.addr, "addr", ":8077", "listen address (host:0 picks a free port)")
	fs.StringVar(&st.addrFile, "addr-file", "", "write the actual listen address to this file (for scripts using :0)")
	fs.IntVar(&st.opts.Workers, "workers", serve.DefaultWorkers, "concurrent simulation jobs")
	fs.IntVar(&st.opts.QueueDepth, "queue", serve.DefaultQueueDepth, "admission queue depth; beyond it requests are shed with 429")
	fs.DurationVar(&st.opts.JobTimeout, "job-timeout", serve.DefaultJobTimeout, "per-job deadline (0 = none)")
	fs.DurationVar(&st.opts.RetryAfter, "retry-after", serve.DefaultRetryAfter, "Retry-After hint attached to shed responses")
	fs.DurationVar(&st.drainTO, "drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, wait this long for in-flight jobs before cancelling them")
	fs.StringVar(&st.debugAt, "debug", "", "also serve the debug endpoint (/debug/vars, /debug/pprof) on this address")
	var (
		cfgPath  = fs.String("config", "", "JSON base config requests layer over (default: episode-scaled Table 1)")
		fullScal = fs.Bool("full-scale", false, "use the full 8 GB Table 1 memory as the base config")
		instr    = fs.Uint64("instr", 0, "base instructions per core (0 = config default)")
		seed     = fs.Uint64("seed", 0, "base workload seed override")
		poolMB   = fs.Int64("pool-mb", 0, "machine-pool byte budget in MB: jobs reuse built simulation machines up to this much standing memory (0 = default budget)")
	)
	if err := fs.Parse(args); err != nil {
		return st, err
	}

	cfg := config.Scaled()
	if *fullScal {
		cfg = config.Default()
	}
	if *cfgPath != "" {
		c, err := config.Load(*cfgPath)
		if err != nil {
			return st, err
		}
		cfg = c
	}
	if *instr > 0 {
		cfg.InstrPerCore = *instr
	}
	if *seed > 0 {
		cfg.Seed = *seed
	}
	if err := cfg.Validate(); err != nil {
		return st, err
	}
	st.opts.Base = cfg
	if *poolMB < 0 {
		return st, fmt.Errorf("-pool-mb %d: want a budget >= 0 MB (0 = default)", *poolMB)
	}
	st.opts.PoolBytes = *poolMB << 20
	st.opts.Log = func(ev serve.LogEvent) {
		if line := textLine(ev); line != "" {
			log.Print(line)
		}
	}
	return st, nil
}

// textLine renders a job transition as a log line. Only the terminal
// transitions (done, failed, shed) have one, so the log stays quiet;
// admitted and start return "".
func textLine(ev serve.LogEvent) string {
	ms := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Millisecond)).Round(time.Millisecond)
	}
	switch ev.Event {
	case "done":
		return fmt.Sprintf("job %s done in %v (queued %v, %d bytes)", ev.Key, ms(ev.RunMS), ms(ev.QueueMS), ev.Bytes)
	case "failed":
		return fmt.Sprintf("job %s failed after %v (queued %v): %s", ev.Key, ms(ev.RunMS), ms(ev.QueueMS), ev.Error)
	case "shed":
		return fmt.Sprintf("shed %s (queue full)", ev.Key)
	}
	return ""
}

// serveDebug starts the debug endpoint on addr and announces it in the
// log as "debug endpoint on http://<addr>"; scripts find the address
// in that line, so nothing follows it.
func serveDebug(addr string) (*telemetry.Publisher, error) {
	pub := &telemetry.Publisher{}
	at, err := pub.Serve(addr)
	if err != nil {
		return nil, err
	}
	log.Printf("debug endpoint on http://%s", at)
	return pub, nil
}

func run(args []string) error {
	st, err := parse(args)
	if err != nil {
		return err
	}
	srv := serve.New(st.opts)

	var pub *telemetry.Publisher
	if st.debugAt != "" {
		if pub, err = serveDebug(st.debugAt); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", st.addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s (%d workers, queue %d)", ln.Addr(), st.opts.Workers, st.opts.QueueDepth)
	if st.addrFile != "" {
		if err := os.WriteFile(st.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stopSig() // a second signal kills the process the default way

	// Drain: stop admitting, let jobs finish inside the deadline, then
	// cancel cooperatively; only then tear down the HTTP listener so
	// waiting clients get their (possibly cancelled) responses.
	log.Printf("signal received; draining (deadline %v)", st.drainTO)
	dctx, dcancel := context.WithTimeout(context.Background(), st.drainTO)
	defer dcancel()
	drainErr := srv.Shutdown(dctx)
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}

	// Publisher.Shutdown is a no-op when -debug is off.
	if err := pub.Shutdown(context.Background()); err != nil {
		log.Printf("debug shutdown: %v", err)
	}
	if drainErr != nil && !errors.Is(drainErr, context.Canceled) {
		log.Printf("drain: in-flight jobs cancelled at deadline")
	} else {
		log.Printf("drained cleanly")
	}
	return nil
}
