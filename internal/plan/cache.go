package plan

import (
	"container/list"
	"sync"
)

// Key identifies a cached plan. Query is the normalized query text —
// rewrites embed the query's constants (the magic seed fact, the
// counting seed), so plans are keyed by the full goal, not just its
// adornment pattern. A plan is a pure function of (program, query,
// strategy): budgets, observers and fault schedules reach it at
// execution time (ExecOptions), so one entry serves every set of them.
type Key struct {
	Query    string
	Strategy Strategy
}

// Cache is a mutex-guarded LRU of compiled plans plus the per-query
// Shared compilation states they were built from. One Cache belongs to
// one Program (plans carry symbols interned in the program's bank and
// are meaningless across programs); re-parsing a program naturally
// invalidates everything by starting an empty cache.
type Cache struct {
	mu  sync.Mutex
	cap int

	plans map[Key]*list.Element
	order *list.List // front = most recently used

	shared map[string]*Shared // per normalized query text

	// sizeHook, when set, observes entry-count deltas (wired to the
	// obsv plan-cache gauge by the facade).
	sizeHook func(delta int)
}

type cacheEntry struct {
	key Key
	cq  *CompiledQuery
}

// NewCache returns an empty plan cache holding up to capacity plans.
func NewCache(capacity int, sizeHook func(delta int)) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:      capacity,
		plans:    make(map[Key]*list.Element),
		order:    list.New(),
		shared:   make(map[string]*Shared),
		sizeHook: sizeHook,
	}
}

// Get returns the cached plan for key, marking it most recently used.
func (c *Cache) Get(key Key) (*CompiledQuery, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.plans[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).cq, true
}

// Put stores a compiled plan, evicting the least recently used entry
// when full. Failed compiles are never stored (callers only Put
// successes), so a strategy error is re-derived — and re-reported — per
// evaluation.
func (c *Cache) Put(key Key, cq *CompiledQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.plans[key]; ok {
		el.Value.(*cacheEntry).cq = cq
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.plans, oldest.Value.(*cacheEntry).key)
			if c.sizeHook != nil {
				c.sizeHook(-1)
			}
		}
	}
	c.plans[key] = c.order.PushFront(&cacheEntry{key: key, cq: cq})
	if c.sizeHook != nil {
		c.sizeHook(1)
	}
}

// Len reports the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// SharedFor returns the Shared compilation state for a normalized query
// text, building it with mk on first use. All strategies (and all Auto
// fallback attempts) compiling the same query against this cache's
// program reuse one adornment and one analysis through it. The shared
// map is bounded by the same capacity as the plan LRU; when it
// overflows it is simply reset (a Shared is cheap to rebuild — the
// expensive artifacts are the plans, which have their own LRU).
func (c *Cache) SharedFor(query string, mk func() *Shared) *Shared {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh, ok := c.shared[query]; ok {
		return sh
	}
	if len(c.shared) >= c.cap {
		c.shared = make(map[string]*Shared)
	}
	sh := mk()
	c.shared[query] = sh
	return sh
}
