package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scriptGen replays a fixed instruction list, then pads with non-memory
// instructions forever.
type scriptGen struct {
	instrs []workload.Instr
	pos    int
}

func (g *scriptGen) Name() string { return "script" }
func (g *scriptGen) Next(in *workload.Instr) {
	if g.pos < len(g.instrs) {
		*in = g.instrs[g.pos]
		g.pos++
		return
	}
	*in = workload.Instr{}
}
func (g *scriptGen) Fill(buf []workload.Instr) {
	for i := range buf {
		g.Next(&buf[i])
	}
}

// fixedMem completes reads after a fixed delay and records issue order.
type fixedMem struct {
	eng    *sim.Engine
	delay  sim.Time
	issued []uint64
}

func (m *fixedMem) Access(req *mem.Request) {
	m.issued = append(m.issued, req.Addr)
	if req.Write {
		req.Complete()
		return
	}
	m.eng.Schedule(m.delay, req.Complete)
}

func run(t *testing.T, cfg Config, gen workload.Generator, delay sim.Time, quota uint64) (*Core, *fixedMem, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	m := &fixedMem{eng: eng, delay: delay}
	c, err := New(0, cfg, eng, gen, m)
	if err != nil {
		t.Fatal(err)
	}
	finished := false
	if err := c.Start(0, quota, nil, func(int) { finished = true }); err != nil {
		t.Fatal(err)
	}
	for !finished {
		if !eng.Step() {
			t.Fatal("engine drained before quota")
		}
	}
	return c, m, eng
}

func TestStartRejectsBadWindow(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(0, DefaultConfig(), eng, &scriptGen{}, &fixedMem{eng: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(100, 100, nil, nil); err == nil {
		t.Fatal("quota == warmup accepted")
	}
	if err := c.Start(200, 100, nil, nil); err == nil {
		t.Fatal("quota < warmup accepted")
	}
	if eng.Pending() != 0 {
		t.Fatal("rejected Start scheduled events")
	}
}

func TestNonMemoryIPCIsWidth(t *testing.T) {
	cfg := DefaultConfig()
	c, _, _ := run(t, cfg, &scriptGen{}, 0, 10000)
	if ipc := c.IPC(); ipc < 3.9 || ipc > 4.0 {
		t.Fatalf("pure-compute IPC = %.2f, want ~4", ipc)
	}
}

func TestLoadsOverlapUpToROB(t *testing.T) {
	// Independent loads should overlap: with a 400-cycle memory and
	// plenty of loads, IPC must be far above the serial bound.
	var instrs []workload.Instr
	for i := 0; i < 400; i++ {
		instrs = append(instrs, workload.Instr{Mem: true, Addr: uint64(i) << 6})
		for j := 0; j < 9; j++ {
			instrs = append(instrs, workload.Instr{})
		}
	}
	cfg := DefaultConfig()
	delay := sim.Time(400) * sim.NewClockHz(cfg.ClockHz).Period()
	c, _, _ := run(t, cfg, &scriptGen{instrs: instrs}, delay, 4000)
	serialIPC := 10.0 / 400.0
	if ipc := c.IPC(); ipc < serialIPC*5 {
		t.Fatalf("IPC %.3f shows no memory-level parallelism (serial bound %.3f)", ipc, serialIPC)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	mk := func(dep bool) []workload.Instr {
		var instrs []workload.Instr
		for i := 0; i < 200; i++ {
			instrs = append(instrs, workload.Instr{Mem: true, Dependent: dep, Addr: uint64(i) << 6})
			instrs = append(instrs, workload.Instr{}, workload.Instr{}, workload.Instr{})
		}
		return instrs
	}
	cfg := DefaultConfig()
	delay := sim.Time(200) * sim.NewClockHz(cfg.ClockHz).Period()
	indep, _, _ := run(t, cfg, &scriptGen{instrs: mk(false)}, delay, 800)
	dep, _, _ := run(t, cfg, &scriptGen{instrs: mk(true)}, delay, 800)
	if dep.IPC() >= indep.IPC()/2 {
		t.Fatalf("dependent IPC %.3f not much slower than independent %.3f", dep.IPC(), indep.IPC())
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	var instrs []workload.Instr
	for i := 0; i < 100; i++ {
		instrs = append(instrs, workload.Instr{Mem: true, Write: true, Addr: uint64(i) << 6})
		instrs = append(instrs, workload.Instr{})
	}
	cfg := DefaultConfig()
	c, _, _ := run(t, cfg, &scriptGen{instrs: instrs}, 1000, 200)
	if ipc := c.IPC(); ipc < 3 {
		t.Fatalf("stores stalled the core: IPC %.2f", ipc)
	}
	if c.Stats.Stores != 100 {
		t.Fatalf("stores counted %d, want 100", c.Stats.Stores)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// With a tiny store buffer and slow drains, stores must throttle.
	var instrs []workload.Instr
	for i := 0; i < 200; i++ {
		instrs = append(instrs, workload.Instr{Mem: true, Write: true, Addr: uint64(i) << 6})
	}
	cfg := DefaultConfig()
	cfg.StoreBuffer = 2
	eng := sim.NewEngine()
	// Drain stores slowly: 100 cycles each.
	m := &slowStoreMem{eng: eng, delay: sim.Time(100) * sim.NewClockHz(cfg.ClockHz).Period()}
	c, err := New(0, cfg, eng, &scriptGen{instrs: instrs}, m)
	if err != nil {
		t.Fatal(err)
	}
	finished := false
	if err := c.Start(0, 200, nil, func(int) { finished = true }); err != nil {
		t.Fatal(err)
	}
	for !finished && eng.Step() {
	}
	if !finished {
		t.Fatal("core deadlocked under store-buffer pressure")
	}
	if ipc := c.IPC(); ipc > 0.1 {
		t.Fatalf("store-buffer backpressure not applied: IPC %.3f", ipc)
	}
}

type slowStoreMem struct {
	eng   *sim.Engine
	delay sim.Time
}

func (m *slowStoreMem) Access(req *mem.Request) {
	m.eng.Schedule(m.delay, req.Complete)
}

func TestWarmupAndQuotaCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	m := &fixedMem{eng: eng, delay: 10}
	c, err := New(3, DefaultConfig(), eng, &scriptGen{}, m)
	if err != nil {
		t.Fatal(err)
	}
	var warmID, quotaID = -1, -1
	if err := c.Start(500, 1500, func(id int) { warmID = id }, func(id int) { quotaID = id }); err != nil {
		t.Fatal(err)
	}
	for quotaID < 0 && eng.Step() {
	}
	if warmID != 3 || quotaID != 3 {
		t.Fatalf("callbacks: warm=%d quota=%d", warmID, quotaID)
	}
	if c.Stats.Retired != 1000 {
		t.Fatalf("measured %d instructions, want 1000 (quota-warmup)", c.Stats.Retired)
	}
	if !c.Finished() {
		t.Fatal("core not marked finished")
	}
	// Core keeps running after quota without accumulating stats.
	eng.RunUntil(eng.Now() + 10000)
	if c.Stats.Retired != 1000 {
		t.Fatal("stats accumulated after quota")
	}
	if c.RetiredTotal() <= 1500 {
		t.Fatal("core stopped executing after quota")
	}
}

func TestFootprintTracking(t *testing.T) {
	var instrs []workload.Instr
	for i := 0; i < 10; i++ {
		instrs = append(instrs, workload.Instr{Mem: true, Addr: uint64(i) << 12})
	}
	c, _, _ := run(t, DefaultConfig(), &scriptGen{instrs: instrs}, 10, 100)
	if c.Stats.UniquePages != 10 {
		t.Fatalf("tracked %d pages, want 10", c.Stats.UniquePages)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	m := &fixedMem{eng: eng}
	bad := []Config{
		{ClockHz: 0, Width: 4, ROB: 192, StoreBuffer: 32},
		{ClockHz: 3e9, Width: 0, ROB: 192, StoreBuffer: 32},
		{ClockHz: 3e9, Width: 8, ROB: 4, StoreBuffer: 32},
		{ClockHz: 3e9, Width: 4, ROB: 192, StoreBuffer: 0},
	}
	for i, cfg := range bad {
		if _, err := New(0, cfg, eng, &scriptGen{}, m); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// orderMem records every access in issue order and completes each one
// after a fixed delay, so a small store buffer fills and stalls dispatch.
type orderMem struct {
	eng    *sim.Engine
	delay  sim.Time
	issued []uint64
}

func (m *orderMem) Access(req *mem.Request) {
	m.issued = append(m.issued, req.Addr)
	m.eng.Schedule(m.delay, req.Complete)
}

// TestDispatchFollowsStreamAcrossStallsAndReset drives streams several
// fetch blocks long through a two-entry store buffer, so dispatch
// stalls on stores at many cursor positions, and resets the core from
// one stream onto another mid-block: the hierarchy must see each
// stream's memory ops once, in stream order, and nothing left over
// from the first stream after the reset.
func TestDispatchFollowsStreamAcrossStallsAndReset(t *testing.T) {
	stream := func(base uint64) (instrs []workload.Instr, addrs []uint64) {
		for i := 0; i < 5*blockSize+7; i++ {
			in := workload.Instr{Mem: i%3 != 2, Write: i%3 == 0, Addr: base + uint64(i)<<6}
			instrs = append(instrs, in)
			if in.Mem {
				addrs = append(addrs, in.Addr)
			}
		}
		return instrs, addrs
	}
	cfg := DefaultConfig()
	cfg.StoreBuffer = 2
	eng := sim.NewEngine()
	m := &orderMem{eng: eng, delay: sim.Time(40) * sim.NewClockHz(cfg.ClockHz).Period()}
	c, err := New(0, cfg, eng, &scriptGen{}, m)
	if err != nil {
		t.Fatal(err)
	}
	// run resets the core onto a stream and retires quota instructions
	// of it; the accesses issued so far must be a prefix of the stream's.
	run := func(base uint64, quota int) {
		t.Helper()
		instrs, addrs := stream(base)
		eng.Reset()
		c.Reset(&scriptGen{instrs: instrs})
		m.issued = m.issued[:0]
		finished := false
		if err := c.Start(0, uint64(quota), nil, func(int) { finished = true }); err != nil {
			t.Fatal(err)
		}
		for !finished && eng.Step() {
		}
		if !finished {
			t.Fatal("core stalled before its quota")
		}
		if len(m.issued) < quota*2/3 || len(m.issued) > len(addrs) {
			t.Fatalf("stream at %#x: %d accesses issued for %d retired instructions", base, len(m.issued), quota)
		}
		for i, a := range m.issued {
			if a != addrs[i] {
				t.Fatalf("stream at %#x: access %d went to %#x, want %#x", base, i, a, addrs[i])
			}
		}
	}
	run(1<<20, 2*blockSize+5) // stops partway through a fetch block
	run(1<<30, 5*blockSize+7)
}
