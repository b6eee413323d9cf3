package service

import (
	"container/list"
	"sync"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/graph"
)

// SessionKey identifies one warm solver session: sessions cache sampler and
// estimator state, both of which are bound to a graph and a diffusion
// model, so the pair is the natural cache key.
type SessionKey struct {
	Graph     string
	Diffusion core.Diffusion
}

// CacheStats reports session-cache effectiveness and the resident footprint
// of the sample pools cached inside the live sessions — ReuseSamples pools
// and eval pools — read without blocking on any session's solve lock, so
// /stats stays responsive while solves run.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	// PoolBytes is the summed memory of all cached sample pools;
	// PoolBuilds/PoolReuses count ReuseSamples solves that drew a pool
	// versus ones answered from a warm pool.
	PoolBytes  int64 `json:"pool_bytes"`
	PoolBuilds int64 `json:"pool_builds"`
	PoolReuses int64 `json:"pool_reuses"`
}

// SessionCache is a bounded LRU of core.Session values. A session's worker
// scratch costs several O(n) arrays per worker, so an unbounded cache on a
// server with many registered graphs would hold the sum of all their
// vertex counts in memory forever; the LRU bound caps that at Capacity
// graphs' worth.
//
// Eviction only drops the cache's reference: a solve holding the evicted
// *core.Session finishes normally (the session is self-contained and owns
// its own mutex) and the memory is reclaimed when the last holder returns.
type SessionCache struct {
	mu       sync.Mutex
	capacity int
	workers  int
	entries  map[SessionKey]*list.Element
	order    *list.List // front = most recently used
	stats    CacheStats
}

type cacheItem struct {
	key  SessionKey
	sess *core.Session
}

// NewSessionCache returns an LRU bound to capacity sessions (minimum 1).
// workers configures every session it builds.
// The third parameter is unused; cmd/imindbench's replay still passes it.
func NewSessionCache(capacity, workers, _ int) *SessionCache {
	if capacity < 1 {
		capacity = 1
	}
	return &SessionCache{
		capacity: capacity,
		workers:  workers,
		entries:  make(map[SessionKey]*list.Element),
		order:    list.New(),
	}
}

// Acquire returns the warm session for key, building one over g (a snapshot
// at the given graph epoch) on a miss, and reports whether it was a cache
// hit. A hit may return a session at an older epoch than the graph's
// current one — the caller detects that through LockedSession.Epoch and
// migrates with Advance/Reset. The caller uses the session outside the
// cache lock; session-internal locking serializes concurrent solves on the
// same key.
func (c *SessionCache) Acquire(key SessionKey, g *graph.Graph, epoch uint64) (*core.Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*cacheItem).sess, true
	}
	c.stats.Misses++
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		item := oldest.Value.(*cacheItem)
		delete(c.entries, item.key)
		// Pool builds/reuses are cumulative counters: fold the evicted
		// session's totals into the cache's own so /stats never goes
		// backwards. Its pool bytes are NOT folded — that gauge tracks
		// resident memory, which eviction releases.
		_, builds, reuses := item.sess.PoolStats()
		c.stats.PoolBuilds += builds
		c.stats.PoolReuses += reuses
		c.stats.Evictions++
	}
	sess := core.NewSessionAtEpoch(g, key.Diffusion, c.workers, epoch)
	c.entries[key] = c.order.PushFront(&cacheItem{key: key, sess: sess})
	return sess, false
}

// Lookup returns the cached session for key without building one on a miss
// and without touching the hit/miss counters. The mutation endpoint uses it
// to eagerly migrate already-warm sessions to a freshly committed epoch.
func (c *SessionCache) Lookup(key SessionKey) (*core.Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).sess, true
}

// Drop evicts every session of the named graph (both diffusion models):
// the DELETE endpoint's hook, so a graph re-registered under a freed name
// can never inherit the deleted graph's solver state. Cumulative pool
// counters are folded in like a capacity eviction's.
func (c *SessionCache) Drop(graphName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range []core.Diffusion{core.DiffusionIC, core.DiffusionLT} {
		key := SessionKey{Graph: graphName, Diffusion: d}
		el, ok := c.entries[key]
		if !ok {
			continue
		}
		c.order.Remove(el)
		delete(c.entries, key)
		_, builds, reuses := el.Value.(*cacheItem).sess.PoolStats()
		c.stats.PoolBuilds += builds
		c.stats.PoolReuses += reuses
		c.stats.Evictions++
	}
}

// Contains reports whether key is currently cached, without touching LRU
// order or counters.
func (c *SessionCache) Contains(key SessionKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Stats returns a snapshot of the counters. Pool numbers are aggregated
// over the cached sessions through their lock-free counters.
func (c *SessionCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Size = c.order.Len()
	st.Capacity = c.capacity
	for el := c.order.Front(); el != nil; el = el.Next() {
		bytes, builds, reuses := el.Value.(*cacheItem).sess.PoolStats()
		st.PoolBytes += bytes
		st.PoolBuilds += builds
		st.PoolReuses += reuses
	}
	return st
}
