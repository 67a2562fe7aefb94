// Warm-start and solve-cache benchmarks: cold/warm pairs of the impact
// matrix build and of the per-trial adversary round. TestBench
// (bench_micro_test.go) records them with their pivot and cache counters.
package cpsguard

import (
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/core"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/westgrid"
)

// BenchmarkImpactMatrixWarm is BenchmarkImpactMatrix with the solve memo and
// baseline-basis warm starting on, the configuration the experiment harness
// uses when -solve-cache/-warm-start are set: iteration 1 fills the cache
// with warm-started solves, iterations 2+ are pure cache hits — the steady
// state of a Monte-Carlo sweep revisiting the same scenario.
func BenchmarkImpactMatrixWarm(b *testing.B) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	o := actors.RandomOwnership(g, 6, rng.New(1))
	an := &impact.Analysis{Graph: g, Ownership: o,
		Cache: solvecache.New(4096), WarmStart: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.ComputeMatrix(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAdversaryRound builds the ground-truth matrix from scratch and runs
// the exact SA search on it — the per-trial unit of the experiment sweeps —
// optionally sharing a solve cache across rounds.
func benchAdversaryRound(b *testing.B, cache *solvecache.Cache) {
	b.Helper()
	g := westgrid.Build(westgrid.Options{Stress: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewScenario(g, 6, 3)
		s.Cache = cache
		s.WarmStart = cache != nil
		m, err := s.Truth()
		if err != nil {
			b.Fatal(err)
		}
		_, err = adversary.Solve(adversary.Config{
			Matrix: m, Targets: s.Targets, Budget: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdversaryCold rebuilds the impact matrix and solves the SA each
// iteration with no cache — the pre-cache per-trial cost.
func BenchmarkAdversaryCold(b *testing.B) { benchAdversaryRound(b, nil) }

// BenchmarkAdversaryCached is the same round with one solve cache shared
// across iterations, as experiments share one across trials.
func BenchmarkAdversaryCached(b *testing.B) {
	benchAdversaryRound(b, solvecache.New(8192))
}
