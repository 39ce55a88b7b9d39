package main

import (
	"runtime"
	"syscall"
	"time"
)

// The control kernel makes the benchmark's host times comparable across
// the speed swings of a shared machine. Other tenants' memory traffic
// slows the simulator by up to a third, in episodes lasting seconds to
// minutes; between two sets of runs 20 minutes apart on the recording box
// (a 2-vCPU KVM guest) the same code measured 15-30% apart. A small
// random read-modify-write loop over a 4 MiB array (larger than the L2,
// like the simulator's cache and DRAM state) slows in step with it: over
// 20 s windows the median of simulator throughput divided by kernel speed
// varied 2.3% where raw throughput varied 23%.
//
// Every timed measurement is therefore paired with kernel samples taken
// around it and reported at the nominal machine speed: its times are
// multiplied, and its rates divided, by the kernel's speed relative to
// controlNominal. The kernel is part of the benchmark, not of the
// simulator, so a change to the simulator moves the scaled numbers
// exactly as it moves the raw ones.

// controlNominal is the kernel's speed, in thousands of loop iterations
// per CPU second, on the recording box when lightly loaded: scaled
// results read as host times on that machine.
const controlNominal = 230_000

// controlSample is how much thread CPU time one speed sample takes.
const controlSample = 50 * time.Millisecond

type control struct {
	arr []uint64
	x   uint64
}

func newControl() *control {
	c := &control{arr: make([]uint64, 1<<19), x: 88172645463325252}
	for i := range c.arr {
		c.arr[i] = uint64(i)
	}
	return c
}

// speed runs the kernel for controlSample of this thread's CPU time and
// returns its speed relative to controlNominal. Thread CPU time, not wall
// time, so a sample taken while other threads compete for the CPUs is
// not mistaken for a slow machine.
func (c *control) speed() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mask := uint64(len(c.arr) - 1)
	start := threadCPU()
	n := 0
	var el time.Duration
	for el < controlSample {
		for i := 0; i < 1000; i++ {
			c.x ^= c.x << 13
			c.x ^= c.x >> 7
			c.x ^= c.x << 17
			c.arr[(c.x>>20)&mask] += c.arr[c.x&mask]
		}
		n++
		el = threadCPU() - start
	}
	return float64(n) / el.Seconds() / controlNominal
}

// threadCPU returns the calling thread's CPU time (RUSAGE_THREAD).
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	syscall.Getrusage(rusageThread, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
