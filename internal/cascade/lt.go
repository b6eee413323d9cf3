package cascade

import (
	"slices"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// LT is the LiveSampler for the linear threshold model in its triggering-set
// form (Section V-E of the paper; Kempe et al. 2003): each vertex v
// independently picks at most one live in-edge — in-neighbor u is chosen
// with probability w(u,v), and no edge with probability 1 - Σ_u w(u,v).
//
// Edge probabilities double as the LT weights, so the weighted-cascade
// assignment (w(u,v) = 1/indegree(v), summing to exactly 1) is the natural
// companion model. If Σ_u w(u,v) > 1 the choice degenerates gracefully to a
// proportional pick with "no edge" probability 0; callers who need strict LT
// semantics must supply weights summing to at most 1.
//
// Trigger choices are sampled lazily, only for vertices the forward
// traversal actually inspects, so sampling cost stays proportional to the
// explored region rather than to n.
type LT struct {
	rows
}

// NewLT returns an LT sampler over g, reading edge probabilities as LT
// weights.
func NewLT(g *graph.Graph) *LT { return &LT{plainRows(g)} }

// NewLTView returns an LT sampler over a seed view; it draws the samples
// NewLT draws on the view's unified graph. The super edge into a target
// weighs the super row's folded probability, as in the unified graph.
func NewLTView(v *graph.SeedView) *LT { return &LT{viewRows(v)} }

// NewWorkspace allocates scratch space for one goroutine, including the
// lazy trigger-choice buffers.
func (lt *LT) NewWorkspace() *Workspace {
	ws := newWorkspace(lt.N())
	ws.ltStamp = make([]int32, lt.N())
	ws.ltChoice = make([]graph.V, lt.N())
	return ws
}

// choice returns v's sampled trigger in-neighbor for the current epoch,
// sampling it on first use; from is the vertex whose out-row inspects v.
// -1 means v triggers on nothing this round.
//
// On a seed view the super-seed is the source, so its row is walked first
// and inspects each of its targets before any other row does: a choice
// first asked from the super-seed is a super target's, and takes the slow
// path. It walks the unified in-row — the base in-row minus its seed
// sources, then the super edge, whose id n is the largest — accumulating
// the same weights in the same order. Every other vertex's base in-row
// holds no seed, so it is the unified in-row as it stands.
func (lt *LT) choice(v, from graph.V, r *rng.Source, ws *Workspace) graph.V {
	if ws.ltStamp[v] == ws.epoch {
		return ws.ltChoice[v]
	}
	ws.ltStamp[v] = ws.epoch
	chosen := graph.V(-1)
	x := float64(r.Uint64()>>11) / (1 << 53) // r.Float64(), inlined
	acc := 0.0
	in := lt.g.InNeighbors(v)
	ps := lt.g.InProbs(v)
	if from != lt.super {
		for i, u := range in {
			acc += ps[i]
			if x < acc {
				chosen = u
				break
			}
		}
	} else {
		for i, u := range in {
			if lt.seeds[u] {
				continue
			}
			acc += ps[i]
			if x < acc {
				chosen = u
				break
			}
		}
		if chosen == -1 {
			j, _ := slices.BinarySearch(lt.superTo, v)
			if acc += lt.superP[j]; x < acc {
				chosen = lt.super
			}
		}
	}
	ws.ltChoice[v] = chosen
	return chosen
}

// Sample implements LiveSampler. In the LT live-edge graph every vertex has
// in-degree at most one, so the reachable subgraph is a tree rooted at src.
func (lt *LT) Sample(src graph.V, blocked []bool, r *rng.Source, ws *Workspace) *SampledGraph {
	skip := lt.mask(blocked)
	ws.reset()
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		lu := ws.local[u]
		to, _ := lt.out(u)
		for _, v := range to {
			if skip != nil && skip[v] {
				continue
			}
			if lt.choice(v, u, r, ws) != u {
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
func (lt *LT) SimulateCount(src graph.V, blocked []bool, r *rng.Source, ws *Workspace) int {
	skip := lt.mask(blocked)
	ws.reset()
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		to, _ := lt.out(u)
		for _, v := range to {
			if skip != nil && skip[v] {
				continue
			}
			if ws.stamp[v] == ws.epoch {
				continue
			}
			if lt.choice(v, u, r, ws) != u {
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
