package service

import (
	"testing"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/rng"
)

// The session cache must bound its size by evicting the least recently
// used session, and count hits/misses/evictions truthfully.
func TestSessionCacheEviction(t *testing.T) {
	g := datasets.ErdosRenyi(50, 200, true, rng.New(1))
	c := NewSessionCache(2, 1, 0)

	keyA := SessionKey{Graph: "a", Diffusion: core.DiffusionIC}
	keyB := SessionKey{Graph: "b", Diffusion: core.DiffusionIC}
	keyC := SessionKey{Graph: "c", Diffusion: core.DiffusionIC}

	sessA, hit := c.Acquire(keyA, g, 0)
	if hit {
		t.Error("first acquire reported a hit")
	}
	if _, hit := c.Acquire(keyB, g, 0); hit {
		t.Error("acquire of b reported a hit")
	}
	// Touch a so b becomes the LRU victim.
	if got, hit := c.Acquire(keyA, g, 0); !hit || got != sessA {
		t.Error("re-acquire of a did not return the cached session")
	}
	// c overflows the capacity of 2: b must go.
	if _, hit := c.Acquire(keyC, g, 0); hit {
		t.Error("acquire of c reported a hit")
	}

	if c.Contains(keyB) {
		t.Error("b still cached after eviction")
	}
	if !c.Contains(keyA) || !c.Contains(keyC) {
		t.Error("a and c should be cached")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v, want 1 hit, 3 misses, 1 eviction, size 2/2", st)
	}

	// The evicted key rebuilds a fresh session on re-acquire.
	if _, hit := c.Acquire(keyB, g, 0); hit {
		t.Error("evicted b reported a hit on re-acquire")
	}
	if c.Contains(keyA) {
		t.Error("a should be the eviction victim the second time around")
	}
}

// A same-graph, different-model key must map to a different session.
func TestSessionCacheKeyedByModel(t *testing.T) {
	g := datasets.ErdosRenyi(50, 200, true, rng.New(1))
	c := NewSessionCache(4, 1, 0)
	ic, _ := c.Acquire(SessionKey{Graph: "a", Diffusion: core.DiffusionIC}, g, 0)
	lt, hit := c.Acquire(SessionKey{Graph: "a", Diffusion: core.DiffusionLT}, g, 0)
	if hit {
		t.Error("LT acquire hit the IC session")
	}
	if ic == lt {
		t.Error("IC and LT share one session")
	}
	if ic.Diffusion() != core.DiffusionIC || lt.Diffusion() != core.DiffusionLT {
		t.Error("sessions bound to wrong diffusion models")
	}
}
