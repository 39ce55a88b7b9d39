// Command dasserve exposes the deterministic DAS simulator as an HTTP
// service. POST a figure or design request to /run and the body comes
// back as the same byte-stable text dasbench would print; identical
// requests are deduplicated in flight and served from an exact result
// cache thereafter.
//
// Robustness is the point of the binary: a bounded worker pool and
// admission queue (full queue → 429 + Retry-After, never unbounded
// memory), per-job deadlines, a no-progress watchdog, panic isolation
// (a crashing job is a structured 500; its siblings and the server
// survive), and graceful drain on SIGINT/SIGTERM.
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
	"encoding/json"
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
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8077", "listen address (host:0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the actual listen address to this file (for scripts using :0)")
		workers  = flag.Int("workers", serve.DefaultWorkers, "concurrent simulation jobs")
		queue    = flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth; beyond it requests are shed with 429")
		jobTO    = flag.Duration("job-timeout", serve.DefaultJobTimeout, "per-job deadline (0 = none)")
		watchdog = flag.Duration("watchdog", serve.DefaultWatchdogWindow, "cancel a job after this long without simulation progress (0 = off)")
		retryAft = flag.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint attached to shed responses")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, wait this long for in-flight jobs before cancelling them")
		cfgPath  = flag.String("config", "", "JSON base config requests layer over (default: episode-scaled Table 1)")
		fullScal = flag.Bool("full-scale", false, "use the full 8 GB Table 1 memory as the base config")
		instr    = flag.Uint64("instr", 0, "base instructions per core (0 = config default)")
		seed     = flag.Uint64("seed", 0, "base workload seed override")
		debugAt  = flag.String("debug", "", "also serve the telemetry debug endpoint (/metrics, /debug/pprof) on this address")
		logJSON  = flag.Bool("log-json", false, "log one JSON object per job transition (admitted/start/done/failed/shed) instead of free text")
		poolMB   = flag.Int64("pool-mb", 0, "machine-pool byte budget in MB: jobs reuse built simulation machines up to this much standing memory (0 = default budget, <0 = pooling off)")
	)
	flag.Parse()

	cfg := config.Scaled()
	if *fullScal {
		cfg = config.Default()
	}
	if *cfgPath != "" {
		c, err := config.Load(*cfgPath)
		if err != nil {
			return err
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
		return err
	}

	opts := serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		JobTimeout:     *jobTO,
		WatchdogWindow: *watchdog,
		RetryAfter:     *retryAft,
		Base:           cfg,
		Logf:           log.Printf,
	}
	switch {
	case *poolMB < 0:
		opts.PoolBytes = -1
	case *poolMB > 0:
		opts.PoolBytes = *poolMB << 20
	}
	if *logJSON {
		opts.Log = func(ev serve.LogEvent) {
			line, err := json.Marshal(ev)
			if err != nil {
				log.Printf("log-json: %v", err)
				return
			}
			log.Print(string(line))
		}
	}
	srv := serve.New(opts)

	var pub *telemetry.Publisher
	if *debugAt != "" {
		pub = telemetry.NewPublisher()
		dbgAddr, err := pub.Serve(*debugAt)
		if err != nil {
			return err
		}
		log.Printf("debug endpoint on http://%s/metrics", dbgAddr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s (%d workers, queue %d)", ln.Addr(), *workers, *queue)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
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
	log.Printf("signal received; draining (deadline %v)", *drainTO)
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTO)
	defer dcancel()
	drainErr := srv.Shutdown(dctx)
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}

	// Flush telemetry: publish the final server snapshot, then the
	// idempotent Publisher.Shutdown (harmless when -debug is off).
	pub.Publish("dasserve", srv.Snapshot())
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
