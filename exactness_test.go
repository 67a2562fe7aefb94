package cpsguard

import (
	"testing"

	"cpsguard/internal/experiments"
	"cpsguard/internal/stats"
	"cpsguard/internal/telemetry"
)

// TestPaperFiguresProveEverySAPlan is the exactness gate on the paper's
// figures: Fig. 3 and Fig. 4 at reduced trials on the stressed westgrid, the
// budget-6 searches of the paper run, must prove every strategic-adversary
// plan optimal rather than return an incumbent at the node cap.
func TestPaperFiguresProveEverySAPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline exactness gate")
	}
	solves := telemetry.Default().Counter("adversary.solves")
	unproven := telemetry.Default().Counter("adversary.unproven_exits")
	cfg := experiments.Config{Trials: 2, Seed: 1}
	for _, fig := range []struct {
		name string
		run  func(experiments.Config) (*stats.Table, error)
	}{{"fig3", experiments.Fig3}, {"fig4", experiments.Fig4}} {
		s0, u0 := solves.Value(), unproven.Value()
		if _, err := fig.run(cfg); err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		n, u := solves.Value()-s0, unproven.Value()-u0
		if n == 0 {
			t.Fatalf("%s ran no adversary solves", fig.name)
		}
		if u != 0 {
			t.Errorf("%s: %d of %d adversary plans unproven", fig.name, u, n)
		}
	}
}
