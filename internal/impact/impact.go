// Package impact implements Section II-D3: attacks are represented as
// perturbations of the flow-graph parameters (capacity, cost, loss), and
// their impact is the change they induce in each actor's profit,
// Impact = Utility′ − Utility.
//
// The central artifact is the impact matrix IM[a,t] — the profit delta for
// actor a when target (asset/edge) t is attacked — which drives both the
// strategic adversary (package adversary) and the defenders (package
// defense). Because profits are divided by a model that sums exactly to
// social welfare, Σ_a IM[a,t] equals the welfare change of the attack: the
// "gains are met with losses" zero-sum property behind the paper's Fig. 2.
package impact

import (
	"fmt"
	"sort"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
	"cpsguard/internal/parallel"
	"cpsguard/internal/solvecache"
)

// Field names a perturbable edge parameter.
type Field int8

const (
	// Capacity perturbs c(u,v).
	Capacity Field = iota
	// Cost perturbs a(u,v).
	Cost
	// Loss perturbs l(u,v).
	Loss
)

// String implements fmt.Stringer.
func (f Field) String() string {
	switch f {
	case Capacity:
		return "capacity"
	case Cost:
		return "cost"
	case Loss:
		return "loss"
	default:
		return fmt.Sprintf("Field(%d)", int8(f))
	}
}

// Perturbation is one parameter override on one edge.
type Perturbation struct {
	EdgeID string
	Field  Field
	// Value is the new absolute value of the field.
	Value float64
}

// IsCut reports whether p only lowers the capacity of e: Field == Capacity
// and 0 ≤ Value ≤ e.Capacity. A cut only shrinks the feasible region and
// keeps a zero flow on e feasible, which is what the N-k screen's
// dominance rule and the zero-flow skip both rely on. NaN values are not
// cuts.
func (p Perturbation) IsCut(e *graph.Edge) bool {
	return p.Field == Capacity && p.Value >= 0 && p.Value <= e.Capacity
}

// Outage returns the paper's experimental attack: reduce the target's
// capacity to zero ("crashing a PLC", Section III-A3).
func Outage(edgeID string) Perturbation {
	return Perturbation{EdgeID: edgeID, Field: Capacity, Value: 0}
}

// Apply returns a clone of g with the perturbations applied. Unknown edge
// IDs return an error (attacking a non-existent asset is a modeling bug).
func Apply(g *graph.Graph, ps ...Perturbation) (*graph.Graph, error) {
	c := g.Clone()
	for _, p := range ps {
		e := c.Edge(p.EdgeID)
		if e == nil {
			return nil, fmt.Errorf("impact: unknown edge %q", p.EdgeID)
		}
		switch p.Field {
		case Capacity:
			e.Capacity = p.Value
		case Cost:
			e.Cost = p.Value
		case Loss:
			e.Loss = p.Value
		default:
			return nil, fmt.Errorf("impact: unknown field %v", p.Field)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("impact: perturbed graph invalid: %w", err)
	}
	return c, nil
}

// Analysis bundles the pieces needed to measure impacts on one scenario.
type Analysis struct {
	// Graph is the ground-truth (or believed) model.
	Graph *graph.Graph
	// Ownership maps assets to actors.
	Ownership actors.Ownership
	// Model divides welfare among actors (default LMPDivision).
	Model actors.ProfitModel
	// Parallel configures fan-out across targets (default: all cores).
	Parallel parallel.Options
	// Cache, when non-nil, memoizes perturbed solves (and the baseline) so
	// repeated evaluations of the same attack set — across matrix builds,
	// adversary searches, and experiment trials on the same scenario —
	// skip the dispatch entirely. The cache is a pure memo: results are
	// bit-identical with and without it. See cache.go for the key scheme.
	Cache *solvecache.Cache
	// WarmStart re-enters the dispatch simplex from the baseline optimal
	// basis instead of solving two-phase from scratch. Results agree with
	// cold solves within solver tolerance.
	WarmStart bool
	// LPMethod selects the simplex implementation for every dispatch this
	// analysis performs (lp.MethodAuto lets the solver pick, as before).
	// lp.MethodRevised switches to the sparse revised simplex; results
	// agree with the dense method within solver tolerance, and cache
	// entries are salted per method so differently configured Analyses
	// sharing one cache never alias.
	LPMethod lp.Method
}

func (a *Analysis) model() actors.ProfitModel {
	if a.Model != nil {
		return a.Model
	}
	return actors.LMPDivision{}
}

// Baseline dispatches the unperturbed system and returns its per-actor
// profits and welfare.
func (a *Analysis) Baseline() (actors.Profits, *flow.Result, error) {
	r, err := flow.DispatchOpts(a.Graph, flow.Options{LP: lp.Options{Method: a.LPMethod}})
	if err != nil {
		return nil, nil, err
	}
	p, err := a.model().Divide(a.Graph, r, a.Ownership)
	if err != nil {
		return nil, nil, err
	}
	return p, r, nil
}

// Of measures the impact of a single attack (set of perturbations): the
// per-actor profit deltas and the system welfare delta.
func (a *Analysis) Of(ps ...Perturbation) (actors.Profits, float64, error) {
	salt := a.salt()
	base, err := a.baseline(salt)
	if err != nil {
		return nil, 0, err
	}
	return a.ofCached(salt, base, ps)
}

// Evaluator amortizes the per-call salt hashing and baseline resolution of
// Of across many evaluations on one fixed scenario. The N-k screen prices
// thousands of perturbation sets against one baseline; paying the SHA-256
// salt and the baseline lookup once makes each subsequent evaluation a
// single cache probe or dispatch.
type Evaluator struct {
	a    *Analysis
	salt string
	base baselineState
}

// NewEvaluator resolves (and memoizes) the baseline and returns an
// evaluator bound to this analysis. The underlying Analysis must not be
// reconfigured while the evaluator is in use.
func (a *Analysis) NewEvaluator() (*Evaluator, error) {
	salt := a.salt()
	base, err := a.baseline(salt)
	if err != nil {
		return nil, err
	}
	return &Evaluator{a: a, salt: salt, base: base}, nil
}

// BaselineWelfare is the unattacked system welfare.
func (e *Evaluator) BaselineWelfare() float64 { return e.base.result.Welfare }

// BaselineSupport lists the edges with nonzero flow in the baseline
// dispatch (graph edge-index order), or nil when the baseline entry came
// from a cache that predates support recording. Callers must not mutate it.
func (e *Evaluator) BaselineSupport() []string { return e.base.support }

// Of measures one attack exactly like Analysis.Of, without re-resolving the
// baseline.
func (e *Evaluator) Of(ps ...Perturbation) (actors.Profits, float64, error) {
	return e.a.ofCached(e.salt, e.base, ps)
}

// OfSupport prices one perturbation set and additionally returns the flow
// support of the perturbed optimum — the dominance certificate consumed by
// internal/screen. A nil support means the result was served from an entry
// without a recorded certificate; the welfare delta is still exact.
func (e *Evaluator) OfSupport(ps ...Perturbation) (dw float64, support []string, err error) {
	entry, err := e.a.ofCachedEntry(e.salt, e.base, ps)
	if err != nil {
		return 0, nil, err
	}
	return entry.Welfare - e.base.result.Welfare, entry.Support, nil
}

// Matrix is the impact matrix IM[a][t] plus bookkeeping.
type Matrix struct {
	// IM maps actor → target → profit delta.
	IM map[string]map[string]float64
	// WelfareDelta maps target → system welfare change (≤ 0 up to LP
	// tolerance, since the baseline is the welfare optimum).
	WelfareDelta map[string]float64
	// Targets lists the attacked asset IDs in sorted order.
	Targets []string
	// Actors lists all actor IDs appearing in the ownership, sorted.
	Actors []string
	// BaselineWelfare is the unattacked system welfare.
	BaselineWelfare float64
}

// Get returns IM[actor][target] (0 when absent).
func (m *Matrix) Get(actor, target string) float64 {
	if row, ok := m.IM[actor]; ok {
		return row[target]
	}
	return 0
}

// Column returns the per-actor impacts of one target as a map (never nil).
func (m *Matrix) Column(target string) map[string]float64 {
	col := make(map[string]float64, len(m.Actors))
	for _, a := range m.Actors {
		col[a] = m.Get(a, target)
	}
	return col
}

// GainLoss sums the positive entries and the negative entries of the whole
// matrix — the quantities plotted in the paper's Figure 2. Iteration is in
// sorted (actor, target) order, not map order: float addition is not
// associative, so a map-order sum varies in the last ulp between runs,
// which would break the bit-identical determinism the experiment harness
// (and crash-safe resume) guarantees.
func (m *Matrix) GainLoss() (gain, loss float64) {
	for _, a := range m.Actors {
		row := m.IM[a]
		for _, t := range m.Targets {
			v := row[t]
			if v > 0 {
				gain += v
			} else {
				loss += v
			}
		}
	}
	return gain, loss
}

// ComputeMatrix builds the impact matrix for single-asset outage attacks on
// every listed target (nil targets = every edge). Targets are processed in
// parallel; each target costs one dispatch + one profit division.
func (a *Analysis) ComputeMatrix(targets []string) (*Matrix, error) {
	return a.ComputeMatrixOf(targets, func(id string) []Perturbation {
		return []Perturbation{Outage(id)}
	})
}

// ComputeMatrixOf builds an impact matrix for an arbitrary attack vector:
// mk maps each target asset to the perturbations its attack applies. This
// supports the paper's "more subtle" attacks (Section II-D3) — e.g. a
// stealthy loss increase or a cost manipulation — alongside the outage.
func (a *Analysis) ComputeMatrixOf(targets []string, mk func(id string) []Perturbation) (*Matrix, error) {
	if targets == nil {
		targets = a.Graph.AssetIDs()
	}
	salt := a.salt()
	base, err := a.baseline(salt)
	if err != nil {
		return nil, err
	}
	type col struct {
		deltas actors.Profits
		dw     float64
	}
	cols, err := parallel.Map(len(targets), a.Parallel, func(i int) (col, error) {
		deltas, dw, err := a.ofCached(salt, base, mk(targets[i]))
		if err != nil {
			return col{}, fmt.Errorf("target %s: %w", targets[i], err)
		}
		return col{deltas, dw}, nil
	})
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		IM:              map[string]map[string]float64{},
		WelfareDelta:    map[string]float64{},
		Targets:         append([]string(nil), targets...),
		Actors:          a.Ownership.Actors(),
		BaselineWelfare: base.result.Welfare,
	}
	// Ensure every owning actor has a row even if all its deltas are 0.
	for _, actor := range m.Actors {
		m.IM[actor] = map[string]float64{}
	}
	for i, t := range targets {
		m.WelfareDelta[t] = cols[i].dw
		for actor, v := range cols[i].deltas {
			row, ok := m.IM[actor]
			if !ok {
				row = map[string]float64{}
				m.IM[actor] = row
				m.Actors = append(m.Actors, actor)
			}
			row[t] = v
		}
	}
	sort.Strings(m.Actors)
	return m, nil
}
