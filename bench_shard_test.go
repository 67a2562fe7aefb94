// Shard-merge benchmark: the full merge path over an 8-way fleet. TestBench
// (bench_micro_test.go) records it with the merge validation counters.
package cpsguard

import (
	"fmt"
	"path/filepath"
	"testing"

	"cpsguard/internal/checkpoint"
	"cpsguard/internal/shard"
)

// buildShardFleet writes an n-way shard layout with trialsPerShard journaled
// trials each — the merge benchmark's fixture.
func buildShardFleet(tb testing.TB, parent string, n, trialsPerShard int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		a := shard.Assignment{Index: i, Count: n}
		dir := filepath.Join(parent, a.DirName())
		j, err := checkpoint.Create(filepath.Join(dir, shard.JournalName), checkpoint.Options{NoSync: true})
		if err != nil {
			tb.Fatal(err)
		}
		for k := 0; k < trialsPerShard; k++ {
			trial := k*n + i // the k-th trial this shard owns
			id := checkpoint.TrialID(7, fmt.Sprintf("bench point %d", trial%8), trial)
			if err := j.Append(id, true, map[string]float64{"profit": float64(trial)}, ""); err != nil {
				tb.Fatal(err)
			}
		}
		m := shard.NewManifest(a, 7, "bench")
		m.JournalRecords = trialsPerShard
		m.Executed = trialsPerShard
		m.Completed = true
		if err := j.Close(); err != nil {
			tb.Fatal(err)
		}
		m.StampJournal(dir)
		if err := m.Write(dir); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkShardMerge times the full merge path — discovery, manifest and
// CRC validation, partition audit, replay union — over an 8-way fleet of
// 250-trial journals (2000 records per op).
func BenchmarkShardMerge(b *testing.B) {
	parent := b.TempDir()
	buildShardFleet(b, parent, 8, 250)
	dirs, err := shard.DiscoverShards(parent)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := shard.Merge(dirs, shard.MergeOptions{ExpectKey: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if res.Trials != 2000 {
			b.Fatalf("merged %d trials, want 2000", res.Trials)
		}
	}
}
