package cascade

import (
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// This file implements the paper's Section V-E in full generality: the
// triggering model of Kempe et al., which subsumes both IC and LT. Every
// vertex v draws a triggering set T(v) from a distribution over subsets of
// its in-neighbors; a live-edge sample keeps edge (u,v) iff u ∈ T(v).
// AdvancedGreedy and GreedyReplace run unchanged on any triggering model
// because they only consume live-edge samples (Algorithm 2's input).

// TriggerFunc samples a triggering set for vertex v: it appends to dst the
// *indices* (into g.InNeighbors(v)) of the in-neighbors chosen for T(v) and
// returns the extended slice. Implementations must be deterministic given
// r and safe for concurrent calls with distinct r.
type TriggerFunc func(g *graph.Graph, v graph.V, r *rng.Source, dst []int32) []int32

// ICTrigger is the independent cascade model as a triggering distribution:
// each in-neighbor u joins T(v) independently with probability p(u,v).
func ICTrigger(g *graph.Graph, v graph.V, r *rng.Source, dst []int32) []int32 {
	ps := g.InProbs(v)
	for i := range ps {
		if r.Bernoulli(ps[i]) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// LTTrigger is the linear threshold model as a triggering distribution:
// T(v) holds at most one in-neighbor, u with probability w(u,v), nobody
// with the remaining probability.
func LTTrigger(g *graph.Graph, v graph.V, r *rng.Source, dst []int32) []int32 {
	ps := g.InProbs(v)
	x := r.Float64()
	acc := 0.0
	for i := range ps {
		acc += ps[i]
		if x < acc {
			return append(dst, int32(i))
		}
	}
	return dst
}

// Triggering is the LiveSampler for an arbitrary triggering model. Trigger
// sets are sampled lazily — only for vertices the forward traversal
// actually inspects — and cached per round in the workspace.
type Triggering struct {
	g  *graph.Graph
	fn TriggerFunc
}

// NewTriggering returns a sampler over g for the given trigger
// distribution.
func NewTriggering(g *graph.Graph, fn TriggerFunc) *Triggering {
	if fn == nil {
		panic("cascade: nil TriggerFunc")
	}
	return &Triggering{g: g, fn: fn}
}

// N implements LiveSampler.
func (t *Triggering) N() int { return t.g.N() }

// NewWorkspace allocates scratch space for one goroutine, including the
// lazy trigger-set buffers.
func (t *Triggering) NewWorkspace() *Workspace {
	ws := newWorkspace(t.g.N())
	n := t.g.N()
	ws.trStamp = make([]int32, n)
	ws.trStart = make([]int32, n)
	ws.trEnd = make([]int32, n)
	return ws
}

// memberOfTrigger reports whether u is in v's triggering set this round,
// sampling T(v) on first use. Trigger sets are small in practice (expected
// size Σp), so the membership scan is cheap.
func (t *Triggering) memberOfTrigger(u, v graph.V, r *rng.Source, ws *Workspace) bool {
	if ws.trStamp[v] != ws.epoch {
		ws.trStamp[v] = ws.epoch
		start := int32(len(ws.trIdx))
		ws.trIdx = t.fn(t.g, v, r, ws.trIdx)
		ws.trStart[v] = start
		ws.trEnd[v] = int32(len(ws.trIdx))
	}
	in := t.g.InNeighbors(v)
	for _, idx := range ws.trIdx[ws.trStart[v]:ws.trEnd[v]] {
		if in[idx] == u {
			return true
		}
	}
	return false
}

// Sample implements LiveSampler.
func (t *Triggering) Sample(src graph.V, blocked []bool, r *rng.Source, ws *Workspace) *SampledGraph {
	ws.reset()
	ws.trIdx = ws.trIdx[:0]
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		lu := ws.local[u]
		for _, v := range t.g.OutNeighbors(u) {
			if blocked != nil && blocked[v] {
				continue
			}
			if !t.memberOfTrigger(u, v, r, ws) {
				continue
			}
			lv, isNew := ws.reach(v)
			if isNew {
				ws.queue = append(ws.queue, v)
			}
			ws.eFrom = append(ws.eFrom, lu)
			ws.eTo = append(ws.eTo, lv)
		}
	}
	return ws.buildCSR()
}

// SimulateCount implements LiveSampler.
func (t *Triggering) SimulateCount(src graph.V, blocked []bool, r *rng.Source, ws *Workspace) int {
	ws.reset()
	ws.trIdx = ws.trIdx[:0]
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		for _, v := range t.g.OutNeighbors(u) {
			if blocked != nil && blocked[v] {
				continue
			}
			if ws.stamp[v] == ws.epoch {
				continue
			}
			if !t.memberOfTrigger(u, v, r, ws) {
				continue
			}
			ws.stamp[v] = ws.epoch
			ws.local[v] = int32(len(ws.orig))
			ws.orig = append(ws.orig, v)
			ws.queue = append(ws.queue, v)
		}
	}
	return len(ws.orig)
}
