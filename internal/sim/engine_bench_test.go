package sim

import "testing"

// The engine benchmarks isolate the event hot path from the simulator
// models. BenchmarkEngineScheduleCall is the headline number: one
// schedule+fire round trip through the trampoline path used by the
// clock tickers, cache lookups and controller completions — it must
// report 0 allocs/op. BenchmarkEngineSimMix replays the simulator's
// measured event mix; the Churn variants measure deep queues of
// periodic events.

// churner is a self-rescheduling periodic event, the dominant event
// shape in the simulator (core/channel tickers).
type churner struct {
	eng    *Engine
	period Time
}

func churnFire(a, _ any) {
	c := a.(*churner)
	c.eng.ScheduleCall(c.period, churnFire, c, nil)
}

func benchmarkEngineChurn(b *testing.B, depth int) {
	eng := NewEngine()
	cs := make([]churner, depth)
	for i := range cs {
		// Coprime-ish periods keep the heap order nontrivial.
		cs[i] = churner{eng: eng, period: Time(997 + 2*i)}
		eng.ScheduleCall(Time(i), churnFire, &cs[i], nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Executed() < uint64(b.N) {
		eng.Step()
	}
	b.StopTimer()
	eng.Release()
}

func BenchmarkEngineChurn64(b *testing.B) { benchmarkEngineChurn(b, 64) }
func BenchmarkEngineChurn1k(b *testing.B) { benchmarkEngineChurn(b, 1024) }
func BenchmarkEngineChurn8k(b *testing.B) { benchmarkEngineChurn(b, 8192) }

var benchSink int

func benchNopFire(_, _ any) { benchSink++ }

// BenchmarkEngineScheduleCall is a depth-1 schedule+fire round trip on
// the allocation-free trampoline path.
func BenchmarkEngineScheduleCall(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleCall(1, benchNopFire, nil, nil)
		eng.Step()
	}
	eng.Release()
}

// BenchmarkEngineScheduleClosure is the same round trip through the
// closure path (Schedule), for comparison against the trampoline.
func BenchmarkEngineScheduleClosure(b *testing.B) {
	eng := NewEngine()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, fn)
		eng.Step()
	}
	eng.Release()
}

// BenchmarkEngineReleaseReuse measures the per-run cost of standing up
// an engine, running a small workload, and returning the queue backing
// to the pool — the exp.Session fresh-run pattern.
//
// The steady state is 0 allocs/op: Release recycles the Engine struct
// itself along with everything behind it (wheel, bucket arrays,
// overflow heap). This became possible when Release switched to an
// ownership-transferring contract — an engine must not be used after
// Release; systems that outlive a run and want to rewind their engine
// in place call Reset instead (the exp.SystemPool path).
func BenchmarkEngineReleaseReuse(b *testing.B) {
	var cs churner
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		cs.eng, cs.period = eng, 3
		eng.ScheduleCall(0, churnFire, &cs, nil)
		eng.RunUntil(100)
		eng.Drain()
		eng.Release()
	}
}

// simMix reproduces the event mix of a simulated core: a 333 ps core
// tick, cache lookups 4, 12 and 20 core cycles out (every tick enters
// L1, every second L1 lookup reaches L2 and every second L2 lookup the
// LLC: 1.75 lookups per tick), a 1250 ps controller chain, and 60 wakes
// parked about 7.8 µs out (refresh-deadline restarts). On a light
// single-core run 60% of fired events are cache lookups and 34% core
// ticks.
type simMix struct {
	eng    *Engine
	l1, l2 uint64
}

const mixCycle Time = 333 // one 3 GHz core cycle, in ps

func mixTick(a, _ any) {
	m := a.(*simMix)
	m.eng.ScheduleCall(mixCycle, mixTick, m, nil)
	m.eng.ScheduleCall(4*mixCycle, mixL1, m, nil)
}

func mixL1(a, _ any) {
	m := a.(*simMix)
	if m.l1++; m.l1&1 == 0 {
		m.eng.ScheduleCall(8*mixCycle, mixL2, m, nil)
	}
}

func mixL2(a, _ any) {
	m := a.(*simMix)
	if m.l2++; m.l2&1 == 0 {
		m.eng.ScheduleCall(8*mixCycle, mixLLC, m, nil)
	}
}

func mixLLC(_, _ any) { benchSink++ }

func mixCtl(a, _ any) {
	m := a.(*simMix)
	m.eng.ScheduleCall(1250, mixCtl, m, nil)
}

// mixWake is one parked wake; it re-arms 7.8 µs out each time it fires.
type mixWake struct{ eng *Engine }

func mixWakeFire(a, _ any) {
	w := a.(*mixWake)
	w.eng.ScheduleCall(7800*Nanosecond, mixWakeFire, w, nil)
}

// BenchmarkEngineSimMix drives the engine with simMix; one op is one
// fired event. It must report 0 allocs/op.
func BenchmarkEngineSimMix(b *testing.B) {
	eng := NewEngine()
	m := &simMix{eng: eng}
	var wakes [60]mixWake
	for i := range wakes {
		wakes[i].eng = eng
		eng.ScheduleCall(7800*Nanosecond+Time(i)*130*Nanosecond, mixWakeFire, &wakes[i], nil)
	}
	eng.ScheduleCall(0, mixTick, m, nil)
	eng.ScheduleCall(0, mixCtl, m, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Executed() < uint64(b.N) {
		eng.Step()
	}
	b.StopTimer()
	eng.Release()
}
