package telemetry

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestPublisherShutdown exercises the graceful-shutdown path dasbench
// uses on SIGINT/SIGTERM: serve, answer a request, shut down, and
// verify the listener is really gone and repeat calls are safe.
func TestPublisherShutdown(t *testing.T) {
	var p Publisher
	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("live server unreachable: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars -> %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}

	// Idempotent: a second shutdown (dasbench defers one unconditionally
	// after the signal handler may already have run) is a no-op.
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	// Never-served and nil publishers shut down cleanly too.
	if err := new(Publisher).Shutdown(ctx); err != nil {
		t.Fatalf("unserved shutdown: %v", err)
	}
	var np *Publisher
	if err := np.Shutdown(ctx); err != nil {
		t.Fatalf("nil shutdown: %v", err)
	}
}
