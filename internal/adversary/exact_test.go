package adversary

import (
	"fmt"
	"math"
	"testing"

	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
)

// exactCase builds seeded instance #seed of the exactness battery: up to 9
// targets and 0–5 actors with mixed-sign (and some zero) impacts, unit,
// non-uniform and zero costs, success probabilities below 1, and a budget
// that cycles through 0, everything affordable, and fractional values.
func exactCase(seed uint64) Config {
	rs := rng.New(seed)
	nT, nA := 1+rs.Intn(9), rs.Intn(6)
	m := &impact.Matrix{IM: map[string]map[string]float64{}, WelfareDelta: map[string]float64{}}
	for j := 0; j < nA; j++ {
		a := fmt.Sprintf("a%d", j)
		m.Actors = append(m.Actors, a)
		m.IM[a] = map[string]float64{}
	}
	targets := make([]Target, nT)
	total := 0.0
	for i := range targets {
		id := fmt.Sprintf("t%d", i)
		m.Targets = append(m.Targets, id)
		for _, a := range m.Actors {
			if rs.Intn(5) != 0 {
				m.IM[a][id] = (rs.Float64() - 0.4) * 10
			}
		}
		tg := Target{ID: id, Cost: 1, SuccessProb: 1}
		switch rs.Intn(4) {
		case 0:
			tg.Cost = 0
		case 1:
			tg.Cost = 0.25 + 3*rs.Float64()
		}
		if rs.Intn(2) == 0 {
			tg.SuccessProb = 0.2 + 0.8*rs.Float64()
		}
		targets[i] = tg
		total += tg.Cost
	}
	cfg := Config{Matrix: m, Targets: targets}
	switch seed % 4 {
	case 0:
		cfg.Budget = 0
	case 1:
		cfg.Budget = total + 1
	case 2:
		cfg.Budget = float64(rs.Intn(4)) + 0.5
	default:
		cfg.Budget = rs.Float64() * total
	}
	return cfg
}

// bruteBest returns the best value over every affordable extension of set by
// a subset of tail, for a node that has already spent spent. Costs are added
// in tail order, as the search adds them.
func bruteBest(in *instance, set, tail []int, spent float64) float64 {
	best := math.Inf(-1)
	buf := make([]int, 0, len(set)+len(tail))
	for mask := 0; mask < 1<<len(tail); mask++ {
		buf = append(buf[:0], set...)
		total := spent
		for b, i := range tail {
			if mask&(1<<b) != 0 {
				buf = append(buf, i)
				total += in.cost[i]
			}
		}
		if total > in.budget+1e-12 {
			continue
		}
		if v, _ := in.value(buf); v > best {
			best = v
		}
	}
	return best
}

func allTargets(in *instance) []int {
	all := make([]int, len(in.ids))
	for i := range all {
		all[i] = i
	}
	return all
}

// checkExact solves cfg and requires a proven plan worth the brute-force
// optimum (never below the empty attack's 0).
func checkExact(t *testing.T, name string, cfg Config) *Plan {
	t.Helper()
	p, err := Solve(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !p.Proven {
		t.Fatalf("%s: plan not proven after %d nodes", name, p.Nodes)
	}
	in, err := newInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Max(0, bruteBest(in, nil, allTargets(in), 0))
	if math.Abs(p.Anticipated-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: Solve %v (targets %v) != brute-force optimum %v", name, p.Anticipated, p.Targets, want)
	}
	return p
}

// TestSolveMatchesBruteForceAndMILP is the exactness differential: on seeded
// instances the branch and bound, exhaustive enumeration and the paper's
// Eq. 8 MILP agree, and the search proves its plan.
func TestSolveMatchesBruteForceAndMILP(t *testing.T) {
	for seed := uint64(1); seed <= 80; seed++ {
		cfg := exactCase(seed)
		name := fmt.Sprintf("seed %d (budget %v)", seed, cfg.Budget)
		p := checkExact(t, name, cfg)
		oracle, err := SolveMILP(cfg)
		if err != nil {
			t.Fatalf("%s: MILP: %v", name, err)
		}
		if math.Abs(p.Anticipated-oracle.Anticipated) > 1e-6*(1+math.Abs(oracle.Anticipated)) {
			t.Fatalf("%s: Solve %v != MILP %v", name, p.Anticipated, oracle.Anticipated)
		}
	}
}

// TestBoundIsSound checks the search's bound at every node it computes one:
// no affordable extension of the node's set by its remaining candidates may
// be worth more than the bound.
func TestBoundIsSound(t *testing.T) {
	checks := 0
	var name string
	restore := setNodeBoundCheck(func(in *instance, set, tail []int, spent, ub float64) {
		checks++
		if best := bruteBest(in, set, tail, spent); ub < best-1e-9*math.Max(1, math.Abs(best)) {
			t.Fatalf("%s: bound %v below subtree optimum %v (set %v, tail %v, spent %v)",
				name, ub, best, set, tail, spent)
		}
	})
	defer restore()
	for seed := uint64(1); seed <= 200; seed++ {
		name = fmt.Sprintf("seed %d", seed)
		checkExact(t, name, exactCase(seed))
	}
	for seed := uint64(1); seed <= 8; seed++ {
		name = fmt.Sprintf("fixture %d", seed)
		checkExact(t, name, incrementalFixture(10, 4, seed))
	}
	// Three 0.1 targets fit a 0.3 budget only through the search's 1e-12
	// feasibility slack: 0.1+0.1+0.1 exceeds 0.3 in floating point, and
	// 0.3/0.1 floors to 2.
	name = "round-off budget"
	checkExact(t, name, Config{
		Matrix:  matrixOf(map[string]map[string]float64{"A": {"t1": 10, "t2": 10, "t3": 10}}),
		Targets: UniformTargets([]string{"t1", "t2", "t3"}, 0.1, 1),
		Budget:  0.3,
	})
	if checks < 2500 {
		t.Fatalf("only %d bounds checked; the battery no longer exercises the search", checks)
	}
}

// FuzzAdversaryExact compares Solve with exhaustive enumeration on seeded
// instances under arbitrary budgets, including negative and non-finite ones.
func FuzzAdversaryExact(f *testing.F) {
	for _, c := range []struct {
		seed   uint64
		budget float64
	}{{1, 0}, {2, 2.5}, {3, 1e9}, {4, -1}, {5, 0.3}, {6, math.Inf(1)}} {
		f.Add(c.seed, c.budget)
	}
	f.Fuzz(func(t *testing.T, seed uint64, budget float64) {
		cfg := exactCase(seed)
		cfg.Budget = budget
		checkExact(t, fmt.Sprintf("seed %d budget %v", seed, budget), cfg)
	})
}
