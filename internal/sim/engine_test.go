package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

// TestEngineEmptyQueueFarThenNearOrder pins the regression where a
// callback executing with a transiently empty queue (the engine pops
// the last entry before firing it) schedules a far-future wake first
// and a near one second. The timing wheel used to re-anchor its window
// at the far push, admitting it into the wheel; the near push then
// underflowed into the overflow heap, and its pop dragged the window
// base back, stranding the far entry outside the window where the
// circular bucket probe no longer matches time order — the far event
// fired before nearer ones and the clock ran backwards. This is the
// exact shape of the next-event controller's deep sleeps (a refresh-due
// wake several microseconds out followed by a tRFC-scale wake).
func TestEngineEmptyQueueFarThenNearOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	note := func() { fired = append(fired, e.Now()) }
	e.Schedule(256, func() {
		note()
		// Queue is empty right now. Far wake: ~2000 wheel buckets out.
		e.Schedule(128000, note)
		// Near wake: before the far one.
		e.Schedule(1, func() {
			note()
			// Lands in the wheel in a slot that circularly trails the far
			// entry's slot when the window is mis-anchored.
			e.Schedule(64000-257, note)
		})
	})
	e.Run()
	want := []Time{256, 257, 64000, 128256}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEnginePastSchedulePanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestEngineNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	NewEngine().Schedule(0, nil)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.Schedule(i*10, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("ran %d events until t=50, want 5", count)
	}
	if e.Pending() != 5 {
		t.Fatalf("%d pending, want 5", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("total %d events, want 10", count)
	}
}

func TestEngineDrain(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() { t.Fatal("drained event fired") })
	e.Drain()
	e.Run()
	if e.Executed() != 0 {
		t.Fatal("executed count nonzero after drain")
	}
}

func TestEngineMonotonicProperty(t *testing.T) {
	// Property: however delays are chosen, observed firing times are
	// monotonically non-decreasing.
	check := func(delays []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFromNS(t *testing.T) {
	cases := []struct {
		ns   float64
		want Time
	}{
		{1, 1000},
		{13.75, 13750},
		{146.25, 146250},
		{0.0005, 1}, // rounds up
		{0, 0},
	}
	for _, c := range cases {
		if got := FromNS(c.ns); got != c.want {
			t.Errorf("FromNS(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
	if got := FromNS(13.75); got.NS() != 13.75 {
		t.Errorf("roundtrip failed: %v", got.NS())
	}
}

// TestEngineSteadyStateAllocatesNothing pins the engine's allocation
// contract: once the slab and the overflow heap have grown to the
// pending population, a schedule-and-step cycle allocates nothing. The
// cycle mixes the three event shapes the simulator schedules: near
// trampoline events (core ticks, cache lookups), closure events (a
// pre-built func, like the controller's completions) and far events
// that overflow the wheel (refresh-deadline wakes).
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEngine()
	defer e.Release()
	n := 0
	nop := func(_, _ any) { n++ }
	closure := func() { n++ }
	var far [60]int
	for i := range far {
		e.ScheduleCall(Time(i)*130*Nanosecond, nop, &far[i], nil)
	}
	cycle := func() {
		e.ScheduleCall(333, nop, e, nil)
		e.Schedule(1250, closure)
		e.ScheduleCall(7800*Nanosecond, nop, &far[n%len(far)], nil)
		for i := 0; i < 3; i++ {
			e.Step()
		}
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule-and-step cycle allocated %.2f times per run, want 0", allocs)
	}
	if e.Pending() != len(far) {
		t.Fatalf("%d events pending, want the %d parked wakes", e.Pending(), len(far))
	}
}
