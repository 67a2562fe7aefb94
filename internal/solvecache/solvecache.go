// Package solvecache memoizes perturbation-set solve results. The
// evaluation pipeline (impact matrices, adversary branch-and-bound,
// experiment grids) repeatedly prices the same attack sets against the same
// baseline grid; the cache keys each solved set by a canonical hash
// (impact.CanonicalKey, salted by the scenario fingerprint) and stores the
// per-actor profits, welfare, and the optimal LP basis for warm-starting
// neighbours.
//
// The cache is a pure memo: entries hold exactly what a fresh solve would
// produce, so enabling it never changes results — the golden-figure CSVs
// stay byte-identical with the cache on. Entries are immutable once
// inserted and eviction only unlinks them, so a reader holding an Entry is
// never affected by concurrent eviction.
//
// All methods are safe for concurrent use and nil-safe: a nil *Cache is a
// valid always-miss cache, which lets callers thread an optional cache
// without guarding every call site.
package solvecache

import (
	"container/list"
	"sync"

	"cpsguard/internal/flow"
	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
)

var (
	mHits      = telemetry.NewCounter("solvecache.hits")
	mMisses    = telemetry.NewCounter("solvecache.misses")
	mEvictions = telemetry.NewCounter("solvecache.evictions")
)

// Entry is one memoized solve result. Entries are stored by value at Put
// and must not be mutated afterward; the Profits map and Basis are shared
// with every Get caller.
type Entry struct {
	// Profits holds the absolute per-actor profits of the perturbed solve
	// (not deltas — deltas are reconstructed against whichever baseline the
	// caller holds, keeping the memo baseline-independent).
	Profits map[string]float64
	// Welfare is the perturbed dispatch welfare.
	Welfare float64
	// Basis is the optimal LP basis of the perturbed dispatch, for
	// warm-starting structurally identical neighbours. May be nil.
	Basis *lp.Basis
	// Support lists the edges carrying nonzero flow in the perturbed
	// dispatch, in graph edge-index order. It is the dominance certificate
	// the N-k screen consumes (internal/screen): a perturbation touching
	// only zero-flow edges cannot change this optimum. Nil when the entry
	// predates support recording; consumers must treat nil as "no
	// certificate", never as "empty support".
	Support []string
	// Dispatch is the full dispatch the entry was computed from. Only
	// baseline entries record it: zero-flow capacity cuts reuse the
	// baseline dispatch instead of re-solving (internal/impact), and they
	// must be able to do so whether the baseline was solved or served
	// from the memo. Nil on every other entry.
	Dispatch *flow.Result
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits, Misses, Evictions int64
	Size, Capacity          int
}

type cacheItem struct {
	key   string
	entry Entry
}

// Cache is a size-bounded LRU memo from canonical perturbation-set keys to
// solve results. The zero value is unusable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*list.Element // value: *cacheItem
	order    *list.List               // front = most recently used
	hits     int64
	misses   int64
	evicts   int64
}

// New returns a cache bounded to capacity entries. A capacity ≤ 0 returns
// nil — the always-miss cache — so flag plumbing can pass sizes straight
// through.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		items:    make(map[string]*list.Element, capacity),
		order:    list.New(),
	}
}

// Get returns the memoized entry for key, marking it most recently used.
func (c *Cache) Get(key string) (Entry, bool) {
	if c == nil {
		return Entry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		mMisses.Inc()
		return Entry{}, false
	}
	c.order.MoveToFront(el)
	c.hits++
	mHits.Inc()
	return el.Value.(*cacheItem).entry, true
}

// Put memoizes entry under key, evicting the least recently used entry when
// at capacity. Re-putting an existing key refreshes its recency but keeps
// the stored entry (entries are deterministic, so both writes hold the same
// values).
func (c *Cache) Put(key string, entry Entry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheItem).key)
			c.evicts++
			mEvictions.Inc()
		}
	}
	c.items[key] = c.order.PushFront(&cacheItem{key: key, entry: entry})
}

// Len reports the current number of memoized entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots hit/miss/eviction totals and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicts,
		Size: c.order.Len(), Capacity: c.capacity,
	}
}

// Keys returns the memoized keys from most to least recently used. Intended
// for tests asserting LRU order.
func (c *Cache) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheItem).key)
	}
	return out
}
