//go:build !mc_polltick

// The polling controller executes more engine events than the
// next-event one, so its timeline epochs (taken at the run loop's
// observation stride) land at other simulated instants and the
// timeline digests below differ by construction.

package exp

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// TestGoldenObservedSinks pins every observation sink of one fully
// observed session byte for byte: the metrics timeline CSV, the Chrome
// trace and the request-trace attribution CSV. The session runs Fig7a
// on mcf with weak fast rows and migration failures injected, so the
// pinned bytes cover the fault instants and the fault telemetry as well
// as every DRAM command slice, energy sample and dram.* metric.
// The figure goldens cannot see a sink change; this test can. Regenerate
// deliberately with:
//
//	go test ./internal/exp -run TestGoldenObservedSinks -update
func TestGoldenObservedSinks(t *testing.T) {
	cfg := tinyConfig()
	cfg.InstrPerCore = 100_000
	cfg.WeakRowRate = 0.2
	cfg.MigFailRate = 0.1
	s := NewSession(cfg)
	s.Benchmarks = []string{"mcf"}
	s.Observe = &ObserveOptions{Metrics: true, Trace: true, ReqTraceN: 5}
	if _, err := s.Figure("7a"); err != nil {
		t.Fatal(err)
	}
	sinks := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"timeline.csv", s.WriteTimelineCSV},
		{"trace.json", s.WriteTrace},
		{"reqtrace.csv", s.WriteReqTraceCSV},
	}
	var out strings.Builder
	for _, sk := range sinks {
		var buf bytes.Buffer
		if err := sk.write(&buf); err != nil {
			t.Fatalf("%s: %v", sk.name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty sink", sk.name)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		fmt.Fprintf(&out, "%-14s bytes=%-9d fnv64a=%016x\n", sk.name, buf.Len(), h.Sum64())
	}
	goldenCompare(t, "golden_sinks.txt", out.String())
}
