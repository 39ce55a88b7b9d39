package main

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// quantile returns the q-quantile of vals, interpolating linearly between
// closest ranks; 0 for no values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quartiles returns the three cut points of Python's
// statistics.quantiles(vals, n=4) (its default "exclusive" method), the
// spread rule the benchmark's acceptance check uses.
func quartiles(vals []float64) [3]float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	var out [3]float64
	switch n {
	case 0:
		return out
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// digest is the FNV-1a hash of s, the form every output check compares.
func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// splitmix64 derives well-mixed, distinct values from a seed and an
// index: the serve workload's request seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
