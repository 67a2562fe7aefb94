// Revised-simplex benchmarks: the sparse revised simplex on the dispatch
// and national-scale instances, and the dense oracle it is timed against.
// TestBench (bench_micro_test.go) records them with the lp.revised.*
// counters.
package cpsguard

import (
	"os"
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/westgrid"
)

// benchNationalDispatch times one full dispatch of a seeded national-tier
// system with the given simplex method. The graph build is outside the
// timed region; every iteration pays the whole standard-form build +
// solve + extraction path, as the impact layer does per perturbation.
func benchNationalDispatch(b *testing.B, regions int, m lp.Method) {
	b.Helper()
	g, err := gridgen.Build(gridgen.Config{
		Regions: regions, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: m}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRevisedSimplex dispatches the stressed six-state evaluation
// model with the sparse revised simplex. MethodAuto solves this 56-row LP
// with the dense bounded tableau; the entry shows what the sparse solver
// costs below the crossover.
func BenchmarkRevisedSimplex(b *testing.B) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: lp.MethodRevised}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRevisedNationalGrid dispatches a 256-region national-tier
// system (~2000 buses, ~3800 assets) with the revised method — the
// sparse-LU regime the method exists for.
func BenchmarkRevisedNationalGrid(b *testing.B) {
	benchNationalDispatch(b, 256, lp.MethodRevised)
}

// The oracle comparison pair shares one 64-region national instance, the
// largest where the dense tableau's quadratic per-pivot cost stays
// benchmarkable (seconds, not minutes, per solve).

// BenchmarkRevisedNationalOracle is the revised half of the pair.
func BenchmarkRevisedNationalOracle(b *testing.B) {
	benchNationalDispatch(b, 64, lp.MethodRevised)
}

// BenchmarkDenseNationalOracle is the dense half. It costs seconds per
// iteration, so it only runs under make bench; the bench-smoke
// one-iteration pass in ci skips it.
func BenchmarkDenseNationalOracle(b *testing.B) {
	if os.Getenv("BENCH_OUT") == "" {
		b.Skip("dense national solve costs seconds per op; set BENCH_OUT (make bench) to run")
	}
	benchNationalDispatch(b, 64, lp.MethodBounded)
}
