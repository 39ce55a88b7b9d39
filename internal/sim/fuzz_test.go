package sim

import (
	"testing"
)

// refEv is one scheduled event in the reference model.
type refEv struct {
	at  Time
	seq uint64
	id  int
}

// refModel is an executable specification of the engine's ordering
// contract: a flat slice popped by linear min-scan on (at, seq). It is
// deliberately the dumbest correct implementation — O(n) per pop, no
// heap — so a bug would have to exist in both models to go unnoticed.
type refModel struct {
	now Time
	seq uint64
	evs []refEv
	// follow lists the follow-ups an event schedules when it fires, in
	// scheduling order (the engine's callback schedules the same ones).
	follow map[int][]followUp
}

// followUp is one event scheduled from inside another event's callback.
type followUp struct {
	delay Time
	id    int
}

func (m *refModel) schedule(at Time, id int) {
	m.seq++
	m.evs = append(m.evs, refEv{at: at, seq: m.seq, id: id})
}

// step removes and returns the (at, seq)-minimal event, advancing now.
func (m *refModel) step() (int, bool) {
	if len(m.evs) == 0 {
		return 0, false
	}
	min := 0
	for i := 1; i < len(m.evs); i++ {
		e, b := m.evs[i], m.evs[min]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			min = i
		}
	}
	ev := m.evs[min]
	m.evs = append(m.evs[:min], m.evs[min+1:]...)
	m.now = ev.at
	for _, f := range m.follow[ev.id] {
		m.schedule(m.now+f.delay, f.id)
	}
	return ev.id, true
}

// FuzzScheduleOrder drives the engine and the reference model with the
// same operation stream decoded from fuzz input and demands identical
// firing order, clock, and queue occupancy at every point. Both
// scheduling paths (closure and trampoline) are exercised; events fired
// by the engine record their ids so the comparison covers the actual
// callback dispatch, not just the queue bookkeeping.
//
// Each operation is two bytes. The low three bits of the first pick the
// operation; its upper five bits are a left shift applied to the second
// byte, so delays and deadlines span 0 ps to past the 7.8 µs refresh
// interval and reach every wheel bucket, the wrap-around probe and the
// overflow heap. Operations 6 and 7 schedule an event whose callback
// schedules follow-ups from inside itself — the case where the engine
// refills the slot the firing event just vacated: 6 schedules one
// follow-up a few picoseconds out (usually the same wheel bucket), 7 a
// far wake past the wheel's window first and then a near one.
func FuzzScheduleOrder(f *testing.F) {
	f.Add([]byte{0, 5, 1, 5, 2, 0, 2, 0})                   // FIFO tie at same timestamp
	f.Add([]byte{0, 200, 0, 100, 0, 150, 3, 180, 3, 255})   // RunUntil boundaries
	f.Add([]byte{1, 10, 0, 10, 4, 0, 0, 3, 2, 0, 2, 0})     // drain then refill
	f.Add([]byte{0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 5, 0}) // churn then run out
	// Overflow heap: eight wakes 70–1020 ns out (shift 12, 4.096 ns
	// units) pushed out of order, so pushes sift up and pops sift down
	// through a two-level 4-ary heap; a RunUntil past the one near event
	// then finds the heap top first.
	f.Add([]byte{12<<3 | 0, 100, 12<<3 | 1, 50, 12<<3 | 0, 200, 12<<3 | 1, 20, 12<<3 | 0, 150,
		12<<3 | 0, 30, 12<<3 | 1, 250, 12<<3 | 0, 17, 0, 9, 12<<3 | 3, 60, 5, 0})
	// Wrap-around: step to t = 64000 (bucket 1000), then schedule 2240 ps
	// out (bucket 1035, slot 11) and 20 ps out: once the near event has
	// fired, the probe rotates past the start word.
	f.Add([]byte{8<<3 | 0, 250, 2, 0, 5<<3 | 0, 70, 0, 20, 5, 0})
	// Same-word wrap: step to t = 1000 (slot 15), then schedule 65280 ps
	// out (slot 11): the only occupied bucket sits in the start word
	// before the start slot.
	f.Add([]byte{2<<3 | 0, 250, 2, 0, 8<<3 | 1, 255, 2, 0, 5, 0})
	// Follow-ups: same-bucket chains, far-then-near pairs and a 7.86 µs
	// wake (shift 15), interleaved with steps.
	f.Add([]byte{6, 10, 7, 40, 6, 3, 2, 0, 2, 0, 15<<3 | 0, 240, 7, 1, 5, 0})
	// A far-then-near pair scheduled while the queue is otherwise empty
	// (TestEngineEmptyQueueFarThenNearOrder's shape).
	f.Add([]byte{7, 33, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine()
		ref := &refModel{follow: make(map[int][]followUp)}
		var fired, expected []int
		var record func(a, _ any)
		record = func(a, _ any) {
			id := a.(int)
			fired = append(fired, id)
			for k, f := range ref.follow[id] {
				if k%2 == 0 {
					eng.ScheduleCall(f.delay, record, f.id, nil)
				} else {
					eng.Schedule(f.delay, func() { record(f.id, nil) })
				}
			}
		}
		nextID := 0
		newID := func() int {
			nextID++
			return nextID - 1
		}

		refRunUntil := func(deadline Time) {
			for len(ref.evs) > 0 {
				min := ref.evs[0]
				for _, e := range ref.evs[1:] {
					if e.at < min.at || (e.at == min.at && e.seq < min.seq) {
						min = e
					}
				}
				if min.at > deadline {
					return
				}
				id, _ := ref.step()
				expected = append(expected, id)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]&7, Time(data[i+1])<<(data[i]>>3)
			switch op {
			case 0: // Schedule (closure path), relative delay
				id := newID()
				eng.Schedule(arg, func() { record(id, nil) })
				ref.schedule(eng.Now()+arg, id)
			case 1: // ScheduleCallAt (trampoline path), absolute time
				id := newID()
				eng.ScheduleCallAt(eng.Now()+arg, record, id, nil)
				ref.schedule(eng.Now()+arg, id)
			case 2: // Step
				eng.Step()
				if id, ok := ref.step(); ok {
					expected = append(expected, id)
				}
			case 3: // RunUntil a deadline
				deadline := eng.Now() + arg
				eng.RunUntil(deadline)
				refRunUntil(deadline)
			case 4: // Drain
				eng.Drain()
				ref.evs = ref.evs[:0]
			case 5: // Run to empty
				eng.Run()
				for {
					id, ok := ref.step()
					if !ok {
						break
					}
					expected = append(expected, id)
				}
			case 6, 7: // an event that schedules follow-ups when it fires
				id := newID()
				near := Time(data[i+1] & 31)
				if op == 7 {
					ref.follow[id] = append(ref.follow[id], followUp{delay: 8*Microsecond + near, id: newID()})
				}
				ref.follow[id] = append(ref.follow[id], followUp{delay: near, id: newID()})
				eng.ScheduleCall(arg, record, id, nil)
				ref.schedule(eng.Now()+arg, id)
			}
			if eng.Now() != ref.now && op != 4 && len(expected) > 0 {
				// The engine clock advances to each fired event; the models
				// must agree whenever anything has fired.
				t.Fatalf("op %d: clock diverged: engine %d, reference %d", op, eng.Now(), ref.now)
			}
			if eng.Pending() != len(ref.evs) {
				t.Fatalf("op %d: occupancy diverged: engine %d pending, reference %d", op, eng.Pending(), len(ref.evs))
			}
		}

		eng.Run()
		for {
			id, ok := ref.step()
			if !ok {
				break
			}
			expected = append(expected, id)
		}
		if len(fired) != len(expected) {
			t.Fatalf("fired %d events, reference fired %d", len(fired), len(expected))
		}
		for i := range fired {
			if fired[i] != expected[i] {
				t.Fatalf("firing order diverged at event %d: engine id %d, reference id %d\nengine: %v\nreference: %v",
					i, fired[i], expected[i], fired, expected)
			}
		}
	})
}
