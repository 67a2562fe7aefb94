package main

import (
	"fmt"
	"math"
	"os"

	"cpsguard/internal/core"
	"cpsguard/internal/experiments"
	"cpsguard/internal/parallel"
	"cpsguard/internal/stats"
)

// checks counts output checks and keeps each failure's note for the log.
// A failed check is reported, never fatal: it counts against ok_frac.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// golden regenerates the committed golden Fig. 5 configuration and
// byte-compares it with the fixture at path.
func (c *checks) golden(path string, workers int) {
	want, err := os.ReadFile(path)
	if err != nil {
		c.expect(false, "golden fixture: %v", err)
		return
	}
	tb, err := experiments.Fig5(experiments.Config{
		Trials:    2,
		Seed:      7,
		ActorGrid: []int{2, 4},
		SigmaGrid: []float64{0, 0.2},
		PaSamples: 4,
		NoiseMode: core.MatrixNoise,
		Parallel:  parallel.Options{Workers: workers},
	})
	if err != nil {
		c.expect(false, "golden Fig. 5: %v", err)
		return
	}
	c.expect(tb.CSV() == string(want), "golden Fig. 5 drifted from %s", path)
}

// table requires a workload table with one series per actor count, one
// point per σ, and finite values throughout.
func (c *checks) table(w workload, tb *stats.Table) {
	ok := tb != nil && len(tb.Series) == len(w.actorGrid())
	for i := 0; ok && i < len(tb.Series); i++ {
		pts := tb.Series[i].Points
		ok = len(pts) == len(w.sigmaGrid())
		for _, p := range pts {
			ok = ok && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0) &&
				!math.IsNaN(p.StdErr) && !math.IsInf(p.StdErr, 0)
		}
	}
	c.expect(ok, "%s table incomplete or not finite", w.name)
}

// same requires two renderings of a table to be byte-identical.
func (c *checks) same(what string, a, b *stats.Table) {
	c.expect(a != nil && b != nil && a.CSV() == b.CSV(), "%s: tables differ", what)
}
