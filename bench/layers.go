package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/mc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Replay drivers time one layer at a time through its public interface,
// on the instruction stream of the workload's seed:
//
//   - workload: Generator.Next;
//   - cpu: a cpu.Core over fixed-latency memory, minus the generator;
//   - cache: the generator's memory operations through the L1->L2->LLC
//     chain (cache.Access) over a fixed-latency stub, which captures the
//     LLC-miss stream;
//   - mc: that stream through Controller.Enqueue, device included;
//   - core: the same stream through Manager.Access (DAS), minus mc.
//
// The cache, mc and core drivers keep replayWindow requests outstanding
// and issue the next as one completes, as a core's bounded memory-level
// parallelism would, so queues stay as deep as a real run's. Each driver
// repeats its batch and reports the median time per unit.

type driverSizes struct {
	genInstr, cpuInstr, cacheOps, reps int
}

var driverScale = map[string]driverSizes{
	"full":  {genInstr: 2_000_000, cpuInstr: 400_000, cacheOps: 150_000, reps: 5},
	"smoke": {genInstr: 100_000, cpuInstr: 20_000, cacheOps: 10_000, reps: 2},
}

// memLatency is the stub memory's fixed latency, near the simulated
// DRAM read latency of a lightly loaded controller.
var memLatency = sim.FromNS(60)

// replayWindow is the replay drivers' outstanding-request bound (the
// Table 1 L1 MSHR count).
const replayWindow = 16

// fixedMem completes every request memLatency after it arrives.
type fixedMem struct {
	eng *sim.Engine
}

func (m *fixedMem) Access(req *mem.Request) { m.eng.ScheduleCall(memLatency, completeReq, req, nil) }

func completeReq(a, _ any) { a.(*mem.Request).Complete() }

// captureMem is fixedMem that also records the requests reaching it.
type captureMem struct {
	fixedMem
	stream []memOp
}

func (m *captureMem) Access(req *mem.Request) {
	m.stream = append(m.stream, memOp{req.Addr, req.Write})
	m.fixedMem.Access(req)
}

type memOp struct {
	addr  uint64
	write bool
}

// forwardLLC stands in for the LLC on the DAS manager's translation
// path: table-block fetches go straight back to the manager (uncached).
type forwardLLC struct {
	eng *sim.Engine
	mgr *core.Manager
}

func (f *forwardLLC) Access(req *mem.Request) { f.eng.ScheduleCall(0, forwardEvent, f.mgr, req) }

func forwardEvent(a, b any) { a.(*core.Manager).Access(b.(*mem.Request)) }

// replayer issues requests 0..n-1 in order, at most replayWindow in
// flight. Issues are events, so a request completing inside send (a
// posted write) does not recurse into the next send.
type replayer struct {
	eng           *sim.Engine
	n, next, done int
	send          func(i int)
}

func (r *replayer) start() {
	for i := 0; i < replayWindow; i++ {
		r.eng.ScheduleCall(0, issueOne, r, nil)
	}
}

// complete is every replayed request's completion.
func (r *replayer) complete() {
	r.done++
	r.eng.ScheduleCall(0, issueOne, r, nil)
}

func issueOne(a, _ any) {
	r := a.(*replayer)
	if r.next < r.n {
		r.next++
		r.send(r.next - 1)
	}
}

// run steps the engine until every request completed, failing on a
// drained queue or after limit simulated time.
func (r *replayer) run(limit sim.Time) error {
	r.start()
	return stepUntil(r.eng, func() bool { return r.done == r.n }, limit)
}

// stepUntil runs eng until done reports true, failing on a drained queue
// or when simulated time passes limit.
func stepUntil(eng *sim.Engine, done func() bool, limit sim.Time) error {
	for !done() {
		if !eng.Step() {
			return fmt.Errorf("event queue drained before completion")
		}
		if eng.Now() > limit {
			return fmt.Errorf("no completion by t=%.0f ns", limit.NS())
		}
	}
	return nil
}

// timed runs fn reps times under a span of layer and returns the median
// wall time per unit, in nanoseconds.
func timed(tr *tracer, parent int, layer, name string, reps, units int, fn func() error) (float64, error) {
	var per []float64
	for r := 0; r < reps; r++ {
		sp := tr.begin(name, layer, parent, fmt.Sprintf("rep%d", r), 1)
		t0 := time.Now()
		err := fn()
		el := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(el.Nanoseconds())/float64(units))
	}
	return median(per), nil
}

func mcConfig(cfg config.Config) mc.Config {
	return mc.Config{
		WindowSize: cfg.WindowSize, WriteHigh: cfg.WriteHigh, WriteLow: cfg.WriteLow,
		StarvationLimit: sim.FromNS(cfg.StarvationLimitNS),
		ClosedPage:      cfg.ClosedPage,
	}
}

// runDrivers times every replay driver on benchmark bench (core 0 of
// cfg) and returns the driver metrics.
func runDrivers(cfg config.Config, bench, scale string, tr *tracer) (map[string]float64, error) {
	sz := driverScale[scale]
	root := tr.begin("replay drivers", "bench", -1, bench, 1)
	defer tr.end(root)
	out := map[string]float64{}
	newGen := func() (workload.Generator, error) { return exp.MakeGenerator(cfg, bench, 0) }

	gen, err := newGen()
	if err != nil {
		return nil, err
	}
	var in workload.Instr
	genNS, err := timed(tr, root, "workload", "Generator.Next", sz.reps, sz.genInstr, func() error {
		for i := 0; i < sz.genInstr; i++ {
			gen.Next(&in)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["workload.ns_per_instr"] = genNS

	coreCfg := cpu.Config{ClockHz: cfg.CPUGHz * 1e9, Width: cfg.Width, ROB: cfg.ROB, StoreBuffer: cfg.StoreBuffer}
	cpuNS, err := timed(tr, root, "cpu", "cpu.Core", sz.reps, sz.cpuInstr, func() error {
		gen, err := newGen()
		if err != nil {
			return err
		}
		eng := sim.NewEngine()
		defer eng.Release()
		c, err := cpu.New(0, coreCfg, eng, gen, &fixedMem{eng})
		if err != nil {
			return err
		}
		if err := c.Start(0, uint64(sz.cpuInstr), nil, nil); err != nil {
			return err
		}
		return stepUntil(eng, c.Finished, sim.Time(sz.cpuInstr)*50*sim.Nanosecond)
	})
	if err != nil {
		return nil, err
	}
	out["cpu.ns_per_instr"] = cpuNS - genNS

	gen, err = newGen()
	if err != nil {
		return nil, err
	}
	ops := make([]memOp, 0, sz.cacheOps)
	for len(ops) < sz.cacheOps {
		gen.Next(&in)
		if in.Mem {
			ops = append(ops, memOp{in.Addr, in.Write})
		}
	}
	period := sim.NewClockHz(cfg.CPUGHz * 1e9).Period()
	limit := sim.Time(len(ops)) * sim.FromNS(1e4)
	var stream []memOp
	cacheNS, err := timed(tr, root, "cache", "cache.Access", sz.reps, len(ops), func() error {
		eng := sim.NewEngine()
		defer eng.Release()
		bottom := &captureMem{fixedMem: fixedMem{eng}}
		level := func(name string, kb, assoc, lat, mshrs int, lower mem.Component) (*cache.Cache, error) {
			return cache.New(cache.Config{Name: name, SizeBytes: kb << 10, Assoc: assoc, BlockSize: cfg.BlockSize,
				Latency: sim.Time(lat) * period, MSHRs: mshrs}, eng, lower, 1)
		}
		llc, err := level("LLC", cfg.LLCKB, cfg.LLCAssoc, cfg.LLCLatency, cfg.LLCMSHRs, bottom)
		if err != nil {
			return err
		}
		l2, err := level("L2", cfg.L2KB, cfg.L2Assoc, cfg.L2Latency, cfg.L2MSHRs, llc)
		if err != nil {
			return err
		}
		l1, err := level("L1", cfg.L1KB, cfg.L1Assoc, cfg.L1Latency, cfg.L1MSHRs, l2)
		if err != nil {
			return err
		}
		r := &replayer{eng: eng, n: len(ops)}
		reqs := make([]mem.Request, len(ops))
		for i, op := range ops {
			reqs[i] = mem.Request{Addr: op.addr, Write: op.write, Done: r.complete}
		}
		r.send = func(i int) { l1.Access(&reqs[i]) }
		if err := r.run(limit); err != nil {
			return err
		}
		stream = bottom.stream
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["cache.ns_per_access"] = cacheNS
	if len(stream) == 0 {
		return nil, fmt.Errorf("the cache stream produced no LLC misses")
	}

	geom := cfg.Geometry()
	mcNS, err := timed(tr, root, "mc", "Controller.Enqueue", sz.reps, len(stream), func() error {
		eng := sim.NewEngine()
		defer eng.Release()
		dev, err := dram.New(cfg.DRAMConfig(core.Standard))
		if err != nil {
			return err
		}
		ctl, err := mc.New(mcConfig(cfg), eng, dev, 1)
		if err != nil {
			return err
		}
		r := &replayer{eng: eng, n: len(stream)}
		done := func(mc.ServiceKind) { r.complete() }
		reqs := make([]mc.Request, len(stream))
		for i, op := range stream {
			reqs[i] = mc.Request{Coord: geom.Decode(op.addr), Class: dram.RowSlow, Write: op.write, Done: done}
		}
		r.send = func(i int) { ctl.Enqueue(&reqs[i]) }
		return r.run(limit)
	})
	if err != nil {
		return nil, err
	}
	out["mc.ns_per_request"] = mcNS

	coreNS, err := timed(tr, root, "core", "Manager.Access", sz.reps, len(stream), func() error {
		eng := sim.NewEngine()
		defer eng.Release()
		dev, err := dram.New(cfg.DRAMConfig(core.DAS))
		if err != nil {
			return err
		}
		ctl, err := mc.New(mcConfig(cfg), eng, dev, 1)
		if err != nil {
			return err
		}
		mcfg, err := cfg.ManagerConfig(core.DAS)
		if err != nil {
			return err
		}
		mgr, err := core.NewManager(mcfg, eng, ctl, 1)
		if err != nil {
			return err
		}
		mgr.SetLLC(&forwardLLC{eng: eng, mgr: mgr})
		if err := mgr.CheckReady(); err != nil {
			return err
		}
		r := &replayer{eng: eng, n: len(stream)}
		reqs := make([]mem.Request, len(stream))
		for i, op := range stream {
			reqs[i] = mem.Request{Addr: op.addr, Write: op.write, Writeback: op.write, Done: r.complete}
		}
		r.send = func(i int) { mgr.Access(&reqs[i]) }
		if err := r.run(limit); err != nil {
			return err
		}
		return mgr.Err()
	})
	if err != nil {
		return nil, err
	}
	out["core.ns_per_access"] = coreNS - mcNS
	return out, nil
}
