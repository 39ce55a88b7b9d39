package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestServedBytesExact runs the real simulator (no injected runner)
// twice through the HTTP path and once directly, pinning the service's
// central claim: the cached response is byte-identical to what a fresh
// re-run of the same canonical job produces.
func TestServedBytesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	_, ts := newTestServer(t, Options{Workers: 1, Base: tinyConfig()})
	body := `{"design": "das", "benchmarks": ["mcf"]}`

	resp1, first := postRun(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: HTTP %d (%s)", resp1.StatusCode, first)
	}
	if resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first run X-Cache = %q, want miss", resp1.Header.Get("X-Cache"))
	}
	resp2, second := postRun(t, ts, body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second run: HTTP %d, X-Cache %q, want 200 hit", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if string(first) != string(second) {
		t.Fatalf("cached body differs from first run (%d vs %d bytes)", len(first), len(second))
	}
	if resp1.Header.Get("X-Key") == "" || resp1.Header.Get("X-Key") != resp2.Header.Get("X-Key") {
		t.Fatalf("X-Key mismatch: %q vs %q", resp1.Header.Get("X-Key"), resp2.Header.Get("X-Key"))
	}

	// An independent re-run of the same canonical job, outside the
	// server, produces the same bytes — the cache is exact, not stale.
	spec, err := Canonicalize(Request{Design: "das", Benchmarks: []string{"mcf"},
		Config: json.RawMessage(`{}`)}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := simRunner(nil)(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != string(first) {
		t.Fatalf("independent re-run differs from served body (%d vs %d bytes)", len(fresh), len(first))
	}
}

// TestRealRunCancelsPromptly pins the tentpole's cancellation latency:
// a real in-flight simulation sized to run for a long time must honor
// context cancellation at the observation stride, not at completion.
func TestRealRunCancelsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	cfg := tinyConfig()
	cfg.InstrPerCore = 50_000_000 // far more work than the test allows
	spec, err := Canonicalize(Request{Design: "standard", Benchmarks: []string{"mcf"}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = simRunner(nil)(ctx, spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled in the chain", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt (observation-stride) response", elapsed)
	}
}
