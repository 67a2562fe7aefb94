// N-k screening benchmark: a depth-2 vulnerability screen of a 64-region
// national-tier instance. TestBench (bench_micro_test.go) records it with
// the screen.* counters and fails unless the dominance rule pruned at least
// as many contingency sets as it evaluated.
package cpsguard

import (
	"strings"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
	"cpsguard/internal/solvecache"
)

// screenBenchTargets caps the corridor-target set: 32 targets give a
// 528-pair N-2 space — large enough for the dominance rule to matter,
// small enough that one screen stays in benchmark territory (the full
// 464-corridor space at depth 2 is ~10^5 sets, minutes of solves even
// with pruning).
const screenBenchTargets = 32

// screenBenchInstance builds the shared 64-region national-tier instance
// and its corridor-target slice (transmission and pipeline edges — the
// contingencies N-k studies range over).
func screenBenchInstance(tb testing.TB) (*impact.Analysis, []string) {
	tb.Helper()
	g, err := gridgen.Build(gridgen.Config{
		Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var corridor []string
	for _, id := range g.AssetIDs() {
		if strings.HasPrefix(id, "tx:") || strings.HasPrefix(id, "pipe:") {
			corridor = append(corridor, id)
		}
	}
	if len(corridor) < screenBenchTargets {
		tb.Fatalf("national instance has %d corridor targets, want ≥ %d", len(corridor), screenBenchTargets)
	}
	an := &impact.Analysis{
		Graph:     g,
		Ownership: actors.RandomOwnership(g, 4, rng.Derive(3, 0x5C12)),
		Cache:     solvecache.New(16384),
		WarmStart: true,
	}
	return an, corridor[:screenBenchTargets]
}

// BenchmarkScreenNational times one depth-2 vulnerability screen of the
// 64-region national instance over its capped corridor-target set — the
// production screening stack end to end: solve cache, warm starts, revised
// simplex, dominance pruning.
func BenchmarkScreenNational(b *testing.B) {
	an, targets := screenBenchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := screen.Run(screen.Config{Analysis: an, Targets: targets, K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
