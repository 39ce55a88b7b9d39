package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestWatchdogDetectsStall(t *testing.T) {
	progress := uint64(0)
	outstanding := 3
	wd := NewWatchdog(100*Nanosecond,
		func() int { return outstanding },
		func() uint64 { return progress },
		func() string { return "readQ head: bank 2 row 17" })
	if err := wd.Observe(0); err != nil {
		t.Fatalf("first observation errored: %v", err)
	}
	if err := wd.Observe(50 * Nanosecond); err != nil {
		t.Fatalf("within window errored: %v", err)
	}
	err := wd.Observe(150 * Nanosecond)
	if err == nil {
		t.Fatal("stall not detected")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error type %T, want *StallError", err)
	}
	if stall.Outstanding != 3 {
		t.Fatalf("outstanding = %d, want 3", stall.Outstanding)
	}
	if !strings.Contains(err.Error(), "bank 2 row 17") {
		t.Fatalf("report missing from error: %v", err)
	}
}

func TestWatchdogProgressResetsWindow(t *testing.T) {
	progress := uint64(0)
	wd := NewWatchdog(100*Nanosecond,
		func() int { return 1 },
		func() uint64 { return progress },
		nil)
	if err := wd.Observe(0); err != nil {
		t.Fatal(err)
	}
	progress++ // forward progress just before the window expires
	if err := wd.Observe(90 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if err := wd.Observe(180 * Nanosecond); err != nil {
		t.Fatalf("stall reported %v after progress at t=90ns", err)
	}
	if err := wd.Observe(195 * Nanosecond); err == nil {
		t.Fatal("stall not detected after second quiet window")
	}
}

func TestWatchdogBackwardProgressCounts(t *testing.T) {
	// Only change matters: a counter that moves backward is progress
	// too.
	progress := uint64(100)
	wd := NewWatchdog(100*Nanosecond,
		func() int { return 1 },
		func() uint64 { return progress },
		nil)
	_ = wd.Observe(0)
	progress = 0
	if err := wd.Observe(150 * Nanosecond); err != nil {
		t.Fatalf("backward counter change treated as stall: %v", err)
	}
}

func TestWatchdogIdleIsNotStall(t *testing.T) {
	wd := NewWatchdog(100*Nanosecond,
		func() int { return 0 },
		func() uint64 { return 7 },
		nil)
	for ts := Time(0); ts < Microsecond; ts += 50 * Nanosecond {
		if err := wd.Observe(ts); err != nil {
			t.Fatalf("idle system reported stalled at %v: %v", ts, err)
		}
	}
}

func TestWatchdogDefaultWindow(t *testing.T) {
	wd := NewWatchdog(0, func() int { return 1 }, func() uint64 { return 0 }, nil)
	_ = wd.Observe(0)
	if err := wd.Observe(DefaultWatchdogWindow / 2); err != nil {
		t.Fatal("default window too short")
	}
	if err := wd.Observe(2 * DefaultWatchdogWindow); err == nil {
		t.Fatal("default window never fires")
	}
}
