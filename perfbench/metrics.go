package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"cpsguard/internal/telemetry"
)

// metric is one reported value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a quotient that names its base in its unit ("pivots/solve"),
// so a reader always knows what it was divided by. A zero base reports 0:
// the layer was bypassed, not infinitely efficient.
func ratio(num, den float64, unit string) metric {
	if den == 0 {
		return metric{0, unit}
	}
	return metric{num / den, unit}
}

// usage is a process resource reading: CPU time, peak resident set, and
// the Go heap's allocation and GC totals.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	maxRSSKB int64
	alloc    uint64
	gcCycles uint32
	gcPause  uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
		alloc:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  ms.PauseTotalNs,
	}
}

// delta is the work between two usage readings.
type delta struct {
	wallS, cpuS, allocMB, gcPauseS float64
	gcCycles                       int
}

func since(a, b usage) delta {
	return delta{
		wallS:    b.wall.Sub(a.wall).Seconds(),
		cpuS:     (b.cpu - a.cpu).Seconds(),
		allocMB:  float64(b.alloc-a.alloc) / (1 << 20),
		gcPauseS: float64(b.gcPause-a.gcPause) / 1e9,
		gcCycles: int(b.gcCycles - a.gcCycles),
	}
}

// counterNames are the telemetry counters the benchmark reads around a
// sweep.
var counterNames = []string{
	"lp.solves", "lp.pivots", "lp.phase1_solves", "lp.warm_attempts", "lp.warm_fallbacks",
	"solvecache.hits", "solvecache.misses",
	"adversary.solves", "adversary.nodes", "adversary.evaluations",
	"adversary.unproven_exits", "adversary.fallbacks",
	"defense.pa_samples", "knapsack.solves", "knapsack.nodes",
	"experiments.trials", "experiments.trials_excluded",
}

type counters map[string]float64

func readCounters() counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = float64(telemetry.Default().Counter(n).Value())
	}
	return c
}

// sub returns c − before per counter.
func (c counters) sub(before counters) counters {
	d := counters{}
	for n, v := range c {
		d[n] = v - before[n]
	}
	return d
}
