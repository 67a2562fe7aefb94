// Package screen implements N-k contingency screening (ROADMAP item 5,
// after Tönges et al., arXiv:2506.09766): it enumerates outage combinations
// up to depth k over a candidate target list, prices each through the
// impact/solvecache/warm-start evaluation stack, and emits a deterministic
// vulnerability ranking — the worst contingency found, a bounded top list,
// and per-target scores — plus dominance certificates the adversary search
// can use to prune provably irrelevant candidates.
//
// # Dominance rule
//
// The screen's pruning rests on one LP fact. Let S be an outage set whose
// computed optimal dispatch is known, and let t be an additional target
// whose perturbations only *reduce capacities* of edges that carry zero
// flow in that dispatch. Then S's dispatch remains feasible for S∪{t}
// (zero flow satisfies any nonnegative capacity), and since capacity
// reduction only shrinks the feasible region, a point optimal over the
// larger region and feasible in the smaller one is optimal there too.
// S∪{t} therefore inherits S's welfare and flow support exactly — no solve
// needed — and the certificate chains transitively through pruned nodes.
//
// The rule is sound only when every candidate target is a monotone
// capacity reduction (Field == Capacity, 0 ≤ value ≤ base capacity) and no
// two targets touch the same edge (set union must equal sequential
// application). When any target violates this, pruning is disabled for the
// whole run — the screen degrades to reorder-only scoring (every set is
// evaluated; the `screen.reorder_only` counter records the downgrade) and
// no certificates are issued.
//
// # Determinism
//
// Enumeration is lexicographic over target indices and the worst-set
// incumbent only moves on strictly more damage beyond a fixed tolerance,
// so the ranking is a pure function of the inputs. Pruned sets inherit
// their ancestor's exact floats and, being equal in damage to that
// ancestor, can never displace the incumbent — which is why the reported
// Worst is bit-identical between pruned and unpruned runs (the differential
// battery in screen_test.go enforces this).
package screen

import (
	"errors"
	"fmt"
	"sort"

	"cpsguard/internal/impact"
	"cpsguard/internal/parallel"
)

// damageTol is the strict-improvement margin for the worst-set incumbent.
// It sits three orders of magnitude above the solver agreement tolerance
// (1e-9), so a re-solved dominated set — mathematically equal to its
// ancestor, numerically within solver noise — can never displace it.
const damageTol = 1e-6

// Config states one screening run.
type Config struct {
	// Analysis is the evaluation stack: graph, profit model, cache, warm
	// start, and LP method. Its Parallel options drive the per-level
	// fan-out.
	Analysis *impact.Analysis
	// Targets lists the candidate target IDs (default: every asset edge).
	Targets []string
	// Vector maps a target ID to the perturbations its attack applies
	// (default: the paper's capacity-zero outage).
	Vector func(id string) []impact.Perturbation
	// K is the maximum outage depth (minimum 1).
	K int
	// NoPrune disables dominance pruning: every enumerated set is
	// evaluated. Results are equivalent; this is the oracle mode the
	// differential tests compare against.
	NoPrune bool
	// Top bounds the retained worst-contingency list (default 10).
	Top int
	// MaxSets caps the total number of enumerated sets (evaluated +
	// pruned); 0 means unlimited. Truncation is lexicographic and
	// deterministic, and is reported via Ranking.Truncated.
	MaxSets int
}

// TargetScore is one target's depth-1 vulnerability score.
type TargetScore struct {
	ID string `json:"id"`
	// Delta is the welfare change of attacking this target alone (≤ 0 up
	// to LP tolerance).
	Delta float64 `json:"welfare_delta"`
	// CertifiedZero reports that the dominance rule proves this target's
	// perturbations cannot change the baseline optimum: monotone run, and
	// the target only touches edges with zero baseline flow. Certification
	// is independent of NoPrune, so screened and oracle runs agree on it.
	CertifiedZero bool `json:"certified_zero"`
}

// Contingency is one scored outage set.
type Contingency struct {
	// Targets holds the set's target IDs in candidate-index order.
	Targets []string `json:"targets"`
	// Delta is the set's welfare change against the baseline.
	Delta float64 `json:"welfare_delta"`
	// Inherited reports the value came from a dominating ancestor via the
	// pruning rule rather than a solve.
	Inherited bool `json:"inherited,omitempty"`
}

// Ranking is the screen's deterministic output.
type Ranking struct {
	K               int     `json:"k"`
	BaselineWelfare float64 `json:"baseline_welfare"`
	// Monotone reports whether the dominance rule applied; false means the
	// run degraded to reorder-only scoring and issued no certificates.
	Monotone bool `json:"monotone"`
	// Worst is the most damaging contingency found (always a genuinely
	// solved set; the empty set when nothing beats the baseline by more
	// than the tolerance).
	Worst Contingency `json:"worst"`
	// Top lists the worst contingencies, most damaging first (ties broken
	// lexicographically), bounded by Config.Top.
	Top []Contingency `json:"top"`
	// Targets holds every candidate's depth-1 score, most damaging first.
	Targets []TargetScore `json:"targets"`
	// Evaluated and Pruned count solved vs dominance-skipped sets.
	Evaluated int64 `json:"evaluated"`
	Pruned    int64 `json:"pruned"`
	// Truncated reports the MaxSets cap cut enumeration short.
	Truncated bool `json:"truncated,omitempty"`

	certified map[string]bool
}

// CertifiedZero reports whether the screen certified the target as unable
// to change the baseline optimum. Safe for concurrent use; a ranking
// decoded from JSON falls back to scanning the score list.
func (r *Ranking) CertifiedZero(id string) bool {
	if r == nil {
		return false
	}
	if r.certified != nil {
		return r.certified[id]
	}
	for i := range r.Targets {
		if r.Targets[i].ID == id {
			return r.Targets[i].CertifiedZero
		}
	}
	return false
}

// Order returns the candidate target IDs most damaging first — the
// vulnerability ordering consumers may use to prioritize hardening or
// heuristic search. The exact adversary search deliberately does not
// reorder by it (see DESIGN.md §17): it only drops certified-zero targets,
// because reordering equal-value candidates would change tie resolution.
func (r *Ranking) Order() []string {
	out := make([]string, len(r.Targets))
	for i := range r.Targets {
		out[i] = r.Targets[i].ID
	}
	return out
}

// node is one enumerated outage set, stored as (parent, appended target)
// against the previous level.
type node struct {
	last    int // candidate index appended at this level (-1 for the root)
	parent  int // index into the previous level (-1 for the root)
	delta   float64
	support []string // flow support of the set's optimal dispatch (nil = no certificate)
	inherit bool
}

// Run screens the configured scenario and returns its vulnerability
// ranking. Degenerate inputs (unknown edges, empty target lists, broken
// grids) return errors, never panic.
func Run(cfg Config) (*Ranking, error) {
	mRuns.Inc()
	if cfg.Analysis == nil {
		return nil, errors.New("screen: nil analysis")
	}
	k := cfg.K
	if k < 1 {
		k = 1
	}
	topN := cfg.Top
	if topN <= 0 {
		topN = 10
	}
	targets := cfg.Targets
	if targets == nil {
		targets = cfg.Analysis.Graph.AssetIDs()
	}
	if len(targets) == 0 {
		return nil, errors.New("screen: no candidate targets")
	}
	vector := cfg.Vector
	if vector == nil {
		vector = func(id string) []impact.Perturbation {
			return []impact.Perturbation{impact.Outage(id)}
		}
	}

	// Resolve each candidate's perturbation vector and edge footprint, and
	// decide monotonicity for the whole run: every perturbation must be a
	// capacity reduction within [0, base], and no edge may be shared
	// between two candidates.
	vecs := make([][]impact.Perturbation, len(targets))
	edges := make([]map[string]bool, len(targets))
	monotone := true
	edgeOwner := map[string]int{}
	for i, id := range targets {
		vecs[i] = vector(id)
		edges[i] = make(map[string]bool, len(vecs[i]))
		for _, p := range vecs[i] {
			e := cfg.Analysis.Graph.Edge(p.EdgeID)
			if e == nil {
				return nil, fmt.Errorf("screen: target %s perturbs unknown edge %q", id, p.EdgeID)
			}
			if !p.IsCut(e) {
				monotone = false
			}
			if prev, ok := edgeOwner[p.EdgeID]; ok && prev != i {
				monotone = false
			}
			edgeOwner[p.EdgeID] = i
			edges[i][p.EdgeID] = true
		}
	}

	ev, err := cfg.Analysis.NewEvaluator()
	if err != nil {
		return nil, err
	}
	prune := monotone && !cfg.NoPrune
	if !monotone {
		mReorderOnly.Inc()
	}

	r := &Ranking{
		K:               k,
		BaselineWelfare: ev.BaselineWelfare(),
		Monotone:        monotone,
		Worst:           Contingency{Targets: []string{}},
		certified:       make(map[string]bool, len(targets)),
	}
	baseSupport := ev.BaselineSupport()
	for i, id := range targets {
		r.certified[id] = monotone && baseSupport != nil && disjoint(edges[i], baseSupport)
	}

	worstDamage := 0.0
	var top topAcc

	prev := []node{{last: -1, parent: -1, delta: 0, support: baseSupport}}
	levels := [][]node{prev}
	for level := 1; level <= k && len(prev) > 0; level++ {
		var children []node
		for pi := range prev {
			for j := prev[pi].last + 1; j < len(targets); j++ {
				children = append(children, node{last: j, parent: pi})
			}
		}
		if cfg.MaxSets > 0 {
			budget := int64(cfg.MaxSets) - r.Evaluated - r.Pruned
			if budget < int64(len(children)) {
				if budget < 0 {
					budget = 0
				}
				children = children[:budget]
				r.Truncated = true
			}
		}
		if len(children) == 0 {
			break
		}

		// Prune decisions are sequential and cheap: a child inherits when
		// its appended target's edges are disjoint from the parent set's
		// flow support. Parent membership maps are built once per parent.
		supMaps := make([]map[string]bool, len(prev))
		pruned := make([]bool, len(children))
		for ci := range children {
			p := prev[children[ci].parent]
			if !prune || p.support == nil {
				continue
			}
			if supMaps[children[ci].parent] == nil {
				supMaps[children[ci].parent] = toSet(p.support)
			}
			pruned[ci] = disjointSet(edges[children[ci].last], supMaps[children[ci].parent])
		}

		solved, err := parallel.Map(len(children), cfg.Analysis.Parallel, func(ci int) (node, error) {
			c := children[ci]
			p := prev[c.parent]
			if pruned[ci] {
				return node{last: c.last, parent: c.parent, delta: p.delta, support: p.support, inherit: true}, nil
			}
			ps := setPerturbations(levels, level, c, vecs)
			dw, sup, err := ev.OfSupport(ps...)
			if err != nil {
				return node{}, fmt.Errorf("screen: set %v: %w", setIDs(levels, level, c, targets), err)
			}
			return node{last: c.last, parent: c.parent, delta: dw, support: sup}, nil
		})
		if err != nil {
			return nil, err
		}

		// Sequential, lexicographic accounting: counters, the worst-set
		// incumbent, the bounded top list, and depth-1 scores.
		for ci := range solved {
			n := solved[ci]
			if n.inherit {
				r.Pruned++
				mPruned.Inc()
			} else {
				r.Evaluated++
				mEvaluated.Inc()
			}
			ids := setIDs(levels, level, n, targets)
			damage := -n.delta
			if !n.inherit && damage > worstDamage+damageTol {
				worstDamage = damage
				r.Worst = Contingency{Targets: ids, Delta: n.delta}
			}
			top.add(Contingency{Targets: ids, Delta: n.delta, Inherited: n.inherit}, topN)
			if level == 1 {
				r.Targets = append(r.Targets, TargetScore{
					ID: targets[n.last], Delta: n.delta, CertifiedZero: r.certified[targets[n.last]],
				})
			}
		}
		levels = append(levels, solved)
		prev = solved
	}

	r.Top = top.list
	sort.SliceStable(r.Targets, func(a, b int) bool {
		da, db := -r.Targets[a].Delta, -r.Targets[b].Delta
		if da != db {
			return da > db
		}
		return r.Targets[a].ID < r.Targets[b].ID
	})
	return r, nil
}

// setIDs reconstructs a node's target IDs (candidate-index order) by
// walking the parent chain through the level table.
func setIDs(levels [][]node, level int, n node, targets []string) []string {
	idx := setIndices(levels, level, n)
	out := make([]string, len(idx))
	for i, t := range idx {
		out[i] = targets[t]
	}
	return out
}

func setIndices(levels [][]node, level int, n node) []int {
	idx := make([]int, level)
	cur := n
	for l := level; l >= 1; l-- {
		idx[l-1] = cur.last
		cur = levels[l-1][cur.parent]
	}
	return idx
}

func setPerturbations(levels [][]node, level int, n node, vecs [][]impact.Perturbation) []impact.Perturbation {
	var ps []impact.Perturbation
	for _, t := range setIndices(levels, level, n) {
		ps = append(ps, vecs[t]...)
	}
	return ps
}

func toSet(ids []string) map[string]bool {
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func disjoint(set map[string]bool, list []string) bool {
	for _, id := range list {
		if set[id] {
			return false
		}
	}
	return true
}

func disjointSet(a, b map[string]bool) bool {
	for id := range a {
		if b[id] {
			return false
		}
	}
	return true
}

// topAcc maintains the bounded worst-contingency list, ordered by damage
// descending with lexicographic tie-breaks, so its contents are a pure
// function of the enumerated sets.
type topAcc struct {
	list []Contingency
}

func (t *topAcc) add(c Contingency, n int) {
	pos := sort.Search(len(t.list), func(i int) bool { return contingencyLess(c, t.list[i]) })
	if pos >= n {
		return
	}
	t.list = append(t.list, Contingency{})
	copy(t.list[pos+1:], t.list[pos:])
	t.list[pos] = c
	if len(t.list) > n {
		t.list = t.list[:n]
	}
}

// contingencyLess orders a before b: more damage first, then shorter sets,
// then lexicographic target IDs.
func contingencyLess(a, b Contingency) bool {
	if a.Delta != b.Delta {
		return a.Delta < b.Delta
	}
	if len(a.Targets) != len(b.Targets) {
		return len(a.Targets) < len(b.Targets)
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			return a.Targets[i] < b.Targets[i]
		}
	}
	return false
}
