// Solve memoization and warm starting for impact analyses.
//
// Cache keys canonicalize the perturbation set — duplicates collapse
// last-wins per (edge, field), order is normalized — and are salted with a
// fingerprint of everything else the result depends on: the graph bytes,
// the ownership assignment, the profit model, and whether warm starting is
// in effect. Two Analyses over identical scenarios therefore share entries,
// and any difference in scenario content changes the salt rather than
// silently aliasing.
//
// The memo stores absolute per-actor profits, not deltas, so hits replay
// the exact delta arithmetic of a fresh solve against the caller's
// baseline; with warm starting off, cached results are bit-identical to
// uncached ones.
package impact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
)

// mZeroFlowSkips counts perturbation sets answered from the baseline
// dispatch without an LP solve (answersZeroFlow).
var mZeroFlowSkips = telemetry.NewCounter("impact.zero_flow_skips")

// CanonicalKey returns a canonical hex digest of a perturbation set: the
// same attack always yields the same key regardless of perturbation order
// or redundant entries. Matching Apply's semantics, a later perturbation of
// the same (edge, field) overrides an earlier one before normalization.
func CanonicalKey(ps ...Perturbation) string {
	type slot struct {
		edge  string
		field Field
	}
	last := make(map[slot]float64, len(ps))
	for _, p := range ps {
		last[slot{p.EdgeID, p.Field}] = p.Value
	}
	keys := make([]slot, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].edge != keys[j].edge {
			return keys[i].edge < keys[j].edge
		}
		return keys[i].field < keys[j].field
	})
	h := sha256.New()
	var buf [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(k.edge)))
		h.Write(buf[:])
		h.Write([]byte(k.edge))
		h.Write([]byte{byte(k.field)})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(last[k]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// salt fingerprints everything a memoized result depends on besides the
// perturbation set. Empty when no cache is attached (callers use "" as the
// cache-off sentinel).
func (a *Analysis) salt() string {
	if a.Cache == nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte(a.Graph.Fingerprint()))
	assets := make([]string, 0, len(a.Ownership))
	for asset := range a.Ownership {
		assets = append(assets, asset)
	}
	sort.Strings(assets)
	for _, asset := range assets {
		h.Write([]byte(asset))
		h.Write([]byte{0})
		h.Write([]byte(a.Ownership[asset]))
		h.Write([]byte{1})
	}
	h.Write([]byte(a.model().Name()))
	if a.WarmStart {
		// Warm-started optima agree with cold within tolerance but not
		// necessarily in the last ulp; keep the entry families apart so a
		// cache shared across differently configured Analyses stays exact.
		h.Write([]byte{2})
	}
	if a.LPMethod != lp.MethodAuto {
		// Same reasoning per simplex implementation: methods agree within
		// tolerance, not bit for bit, so each gets its own entry family.
		// MethodAuto writes nothing, keeping pre-existing cache keys (and
		// the stores built on them) byte-identical.
		h.Write([]byte{3, byte(a.LPMethod)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// baselineState is the slice of the baseline dispatch that perturbation
// deltas are measured against.
type baselineState struct {
	profits actors.Profits
	support []string
	// result is the baseline dispatch itself: its welfare and basis, and
	// the optimum zero-flow capacity cuts reuse (see answersZeroFlow).
	result *flow.Result
}

// baseline resolves the baseline state, memoized in the cache when one is
// attached (the baseline is by far the most repeated solve: every Of and
// every matrix column needs it). The memo entry carries the full dispatch,
// so the zero-flow skip fires identically on a hit and on a fresh solve.
func (a *Analysis) baseline(salt string) (baselineState, error) {
	key := salt + "|baseline"
	if a.Cache != nil {
		if e, ok := a.Cache.Get(key); ok {
			return baselineState{profits: e.Profits, support: e.Support, result: e.Dispatch}, nil
		}
	}
	p, r, err := a.Baseline()
	if err != nil {
		return baselineState{}, err
	}
	st := baselineState{profits: p, support: supportOf(a.Graph, r), result: r}
	if a.Cache != nil {
		a.Cache.Put(key, solvecache.Entry{Profits: p, Welfare: r.Welfare, Basis: r.Basis, Support: st.support, Dispatch: r})
	}
	return st, nil
}

// supportOf lists the edges carrying nonzero flow in r, in g.Edges index
// order — a deterministic dominance certificate for the N-k screen. The
// exact-zero test is intentional. A flow reads exactly 0 when its variable
// is nonbasic at its zero lower bound or basic at a degenerate zero; either
// way r stays feasible, and so optimal, under any cut of that edge's
// capacity, which is what the screen's dominance rule and the zero-flow
// skip in ofCachedEntry need (DESIGN.md §12). A small flow gives no such
// guarantee: even a 1e-12 round-off residue makes r infeasible once the
// edge is cut to 0, and the cut optimum may then move its prices and
// profits.
func supportOf(g *graph.Graph, r *flow.Result) []string {
	support := make([]string, 0, len(g.Edges))
	for i := range g.Edges {
		if r.Flow[g.Edges[i].ID] != 0 {
			support = append(support, g.Edges[i].ID)
		}
	}
	return support
}

// answersZeroFlow reports whether the baseline dispatch is already the
// exact optimum under ps: every perturbation is a capacity cut (IsCut) of
// an edge that carries exactly zero flow in the baseline. Cutting such a
// capacity only shrinks the feasible region while the baseline point stays
// inside it, and the cut variable stays at its bound, so the baseline
// primal point, duals and basis all remain optimal.
func (a *Analysis) answersZeroFlow(base baselineState, ps []Perturbation) bool {
	for _, p := range ps {
		e := a.Graph.Edge(p.EdgeID)
		if e == nil || !p.IsCut(e) || base.result.Flow[p.EdgeID] != 0 {
			return false
		}
	}
	return true
}

// ofCached prices one perturbation set against the baseline, consulting the
// memo first and warm-starting the dispatch from the baseline basis when
// enabled. The delta arithmetic is shared between hit and miss paths so a
// hit reproduces a fresh solve bit for bit.
func (a *Analysis) ofCached(salt string, base baselineState, ps []Perturbation) (actors.Profits, float64, error) {
	e, err := a.ofCachedEntry(salt, base, ps)
	if err != nil {
		return nil, 0, err
	}
	return deltaProfits(e.Profits, base.profits), e.Welfare - base.result.Welfare, nil
}

// ofCachedEntry is ofCached in absolute form: it returns the full memo
// entry (absolute profits, welfare, basis, flow support) for one
// perturbation set, solving and memoizing on a miss. A set the baseline
// already answers (answersZeroFlow) skips the LP and reuses the baseline
// dispatch; it still goes through Apply, so unknown edges and invalid
// graphs fail exactly as on the solve path. Entries read from a
// cache populated before support recording carry a nil Support; callers
// needing the certificate must treat nil as "none", not "empty".
func (a *Analysis) ofCachedEntry(salt string, base baselineState, ps []Perturbation) (solvecache.Entry, error) {
	var key string
	if a.Cache != nil {
		key = salt + "|" + CanonicalKey(ps...)
		if e, ok := a.Cache.Get(key); ok {
			return e, nil
		}
	}
	gp, err := Apply(a.Graph, ps...)
	if err != nil {
		return solvecache.Entry{}, err
	}
	r := base.result
	if a.answersZeroFlow(base, ps) {
		mZeroFlowSkips.Inc()
	} else {
		var opts flow.Options
		opts.LP.Method = a.LPMethod
		if a.WarmStart {
			opts.LP.WarmStart = base.result.Basis
		}
		if r, err = flow.DispatchOpts(gp, opts); err != nil {
			return solvecache.Entry{}, err
		}
	}
	// The division always runs on the perturbed graph, even when the
	// dispatch is the baseline's: tie owners follow capacities.
	p, err := a.model().Divide(gp, r, a.Ownership)
	if err != nil {
		return solvecache.Entry{}, err
	}
	e := solvecache.Entry{Profits: p, Welfare: r.Welfare, Basis: r.Basis, Support: supportOf(a.Graph, r)}
	if a.Cache != nil {
		a.Cache.Put(key, e)
	}
	return e, nil
}

// deltaProfits computes perturbed − base per actor, including actors that
// vanish from the perturbed division (their entire profit is lost). Each
// entry is a single subtraction, so map iteration order cannot affect bits.
func deltaProfits(p, base actors.Profits) actors.Profits {
	delta := actors.Profits{}
	for actor, v := range p {
		delta[actor] = v - base[actor]
	}
	for actor, v := range base {
		if _, ok := p[actor]; !ok {
			delta[actor] = -v
		}
	}
	return delta
}
