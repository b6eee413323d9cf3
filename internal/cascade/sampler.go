// Package cascade implements influence diffusion under the independent
// cascade (IC) model and its triggering-model generalization: forward
// Monte-Carlo simulation of spread, and live-edge sampled-graph generation
// (Definition 4 of the paper), which is the input to the dominator-tree
// estimator at the heart of AdvancedGreedy and GreedyReplace.
//
// The key object is the LiveSampler interface with three implementations:
//
//   - IC: every edge (u,v) is live independently with probability p(u,v).
//   - LT: every vertex picks at most one live in-edge, in-neighbor u with
//     probability w(u,v) (the classic triggering-set formulation of the
//     linear threshold model).
//   - Triggering: any triggering-set distribution (Section V-E), of which
//     IC and LT are special cases.
//
// Samplers materialize only the part of the live-edge graph reachable from
// the source: by Lemma 1 the expected spread equals the expected number of
// reachable vertices, and by Theorem 6 the per-vertex spread decrease is a
// dominator-subtree size in this reachable subgraph, so nothing outside it
// is ever needed. Edges out of unreachable vertices are never coin-flipped,
// which is what makes sampling O(reachable edges) instead of O(m). A sample
// comes out as a dominator.FlowGraph (SampledGraph embeds one), the format
// the estimators store and run the dominator computation on.
package cascade

import (
	"slices"

	"github.com/imin-dev/imin/internal/dominator"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// SampledGraph is the subgraph of one live-edge sample reachable from the
// source, as a flow graph over compact local ids 0..N-1 with local id 0
// being the source. Slices alias Workspace storage: a SampledGraph is only
// valid until the next Sample call with the same Workspace.
type SampledGraph struct {
	Orig []graph.V // Orig[local] = vertex id in the original graph
	dominator.FlowGraph
}

// LiveSampler generates live-edge samples and forward simulations for a
// fixed underlying graph, or for a seed view of one (graph.SeedView).
// Implementations are safe for concurrent use as long as each goroutine
// owns its Workspace and rng.Source.
type LiveSampler interface {
	// N returns the size of the vertex-id space samples are drawn in: the
	// graph's vertex count, plus one for a seed view's super-seed.
	N() int
	// NewWorkspace allocates reusable per-goroutine scratch space.
	NewWorkspace() *Workspace
	// Sample draws one live-edge sample and returns its reachable subgraph
	// from src. Vertices with blocked[v] set are treated as removed;
	// blocked may be nil. src must not be blocked. On a seed view src is
	// the super-seed, and a non-nil blocked must mark every seed as well
	// (a nil one masks the seeds alone).
	Sample(src graph.V, blocked []bool, r *rng.Source, ws *Workspace) *SampledGraph
	// SimulateCount runs one forward diffusion round and returns the number
	// of activated vertices including src (σ(src, g) of a fresh sample). It
	// is Sample without edge bookkeeping.
	SimulateCount(src graph.V, blocked []bool, r *rng.Source, ws *Workspace) int
}

// Workspace holds the reusable buffers for sampling. All slices are sized to
// the underlying graph's vertex count once and reused across samples through
// epoch stamping, so steady-state sampling does no allocation.
type Workspace struct {
	n     int // the vertex count the arrays below are sized for
	epoch int32
	stamp []int32   // stamp[v] == epoch ⇔ v reached in current sample
	local []int32   // local id of v, valid when stamped
	queue []graph.V // BFS queue of original ids

	orig       []graph.V // local -> original
	eFrom, eTo []int32   // live edges in local ids
	sg         SampledGraph
	ltStamp    []int32   // LT: lazy trigger-choice validity
	ltChoice   []graph.V // LT: chosen in-neighbor (-1 = none)

	// Generic triggering model (triggering.go): trigger-set cache.
	trStamp []int32 // trStamp[v] == epoch ⇔ T(v) sampled this round
	trStart []int32 // T(v) occupies trIdx[trStart[v]:trEnd[v]]
	trEnd   []int32
	trIdx   []int32 // in-neighbor indices, flat arena reset per sample
}

func newWorkspace(n int) *Workspace {
	return &Workspace{
		n:     n,
		stamp: make([]int32, n),
		local: make([]int32, n),
	}
}

// reset starts a new sampling epoch, clearing stamps lazily. When the
// counter wraps to 0 every stamp goes back to 0, the one value no epoch
// takes; any other value would read as reached once the counter returns
// to it.
func (ws *Workspace) reset() {
	ws.epoch++
	if ws.epoch == 0 {
		clear(ws.stamp)
		clear(ws.ltStamp)
		clear(ws.trStamp)
		ws.epoch = 1
	}
	ws.queue = ws.queue[:0]
	ws.orig = ws.orig[:0]
	ws.eFrom = ws.eFrom[:0]
	ws.eTo = ws.eTo[:0]
}

// reach marks v as reached and returns its local id, or returns the existing
// local id if already reached.
func (ws *Workspace) reach(v graph.V) (local int32, isNew bool) {
	if ws.stamp[v] == ws.epoch {
		return ws.local[v], false
	}
	ws.stamp[v] = ws.epoch
	local = int32(len(ws.orig))
	ws.local[v] = local
	ws.orig = append(ws.orig, v)
	return local, true
}

// buildCSR turns the recorded edge list into ws.sg. Every vertex but the
// source is reached by a live edge, so a sample with one edge fewer than
// vertices is a tree: edge j is the one that reached local id j+1, and its
// parent ws.eFrom[j] is nondecreasing in j, because the BFS records edges in
// the order it dequeues their sources. For such a sample OutTo is 1…N−1,
// InTo is eFrom, InStart is 0,0,1,…,N−1 and OutStart comes from the runs of
// eFrom — the arrays Build would produce, byte for byte, written without its
// counting sort. Any other sample goes through Build.
func (ws *Workspace) buildCSR() *SampledGraph {
	ws.sg.Orig = ws.orig
	n := len(ws.orig)
	parent := ws.eFrom
	if len(parent) != n-1 {
		ws.sg.Build(n, parent, ws.eTo)
		return &ws.sg
	}
	fg := &ws.sg.FlowGraph
	outStart, outTo := slices.Grow(fg.OutStart[:0], n+1)[:n+1], slices.Grow(fg.OutTo[:0], n-1)[:n-1]
	inStart, inTo := slices.Grow(fg.InStart[:0], n+1)[:n+1], slices.Grow(fg.InTo[:0], n-1)[:n-1]
	copy(inTo, parent)
	inStart[0] = 0
	u := int32(0) // the next vertex whose out-row start is unset
	for j, p := range parent {
		for ; u <= p; u++ {
			outStart[u] = int32(j)
		}
		outTo[j] = int32(j + 1)
		inStart[j+1] = int32(j)
	}
	for ; int(u) <= n; u++ {
		outStart[u] = int32(n - 1)
	}
	inStart[n] = int32(n - 1)
	*fg = dominator.FlowGraph{N: n, OutStart: outStart, OutTo: outTo, InStart: inStart, InTo: inTo}
	return &ws.sg
}

// rows is the graph a sampler walks: a plain graph, or a seed view of one.
// On a view, out returns the super row at the super-seed and base rows
// elsewhere, and the seed mask stands in for a nil blocked mask, so a
// sampler's inner loop skips seed targets through the one mask it checks
// before any coin; the walk then visits UnifySeeds' edges in its order.
type rows struct {
	g       *graph.Graph
	super   graph.V // the view's super-seed; -1 on a plain graph
	superTo []graph.V
	superP  []float64
	seeds   []bool // the view's seed mask; nil on a plain graph
}

func plainRows(g *graph.Graph) rows { return rows{g: g, super: -1} }

func viewRows(v *graph.SeedView) rows {
	to, ps := v.SuperRow()
	return rows{g: v.Graph(), super: v.Super(), superTo: to, superP: ps, seeds: v.Seeds()}
}

// N implements LiveSampler.
func (rs *rows) N() int {
	if rs.seeds != nil {
		return len(rs.seeds)
	}
	return rs.g.N()
}

// out returns u's out-row: the super row at the super-seed, the base row
// (seed targets included) anywhere else.
func (rs *rows) out(u graph.V) ([]graph.V, []float64) {
	if u == rs.super {
		return rs.superTo, rs.superP
	}
	return rs.g.OutNeighbors(u), rs.g.OutProbs(u)
}

// mask returns the mask a walk skips targets through: blocked, or the
// seed mask when blocked is nil.
func (rs *rows) mask(blocked []bool) []bool {
	if blocked == nil {
		return rs.seeds
	}
	return blocked
}

// IC is the LiveSampler for the independent cascade model: each edge is live
// independently with its propagation probability.
//
// Its coins are r.Bernoulli(p) written out in place: p ≤ 0 and p ≥ 1
// settle the edge without a draw, and any other p (NaN included) takes one
// Uint64 draw whose top 53 bits, scaled as Float64 scales them, must fall
// below p. rng.Source.Float64 is over the compiler's inlining budget, so
// the call would cost more than the draw; the draws and their order are
// Bernoulli's exactly.
type IC struct {
	rows
}

// NewIC returns an IC sampler over g.
func NewIC(g *graph.Graph) *IC { return &IC{plainRows(g)} }

// NewICView returns an IC sampler over a seed view; it draws the samples
// NewIC draws on the view's unified graph.
func NewICView(v *graph.SeedView) *IC { return &IC{viewRows(v)} }

// NewWorkspace allocates scratch space for one goroutine.
func (ic *IC) NewWorkspace() *Workspace { return newWorkspace(ic.N()) }

// Sample implements LiveSampler.
func (ic *IC) Sample(src graph.V, blocked []bool, r *rng.Source, ws *Workspace) *SampledGraph {
	skip := ic.mask(blocked)
	ws.reset()
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		lu := ws.local[u]
		to, ps := ic.out(u)
		for i, v := range to {
			if skip != nil && skip[v] {
				continue
			}
			if p := ps[i]; p <= 0 || !(p >= 1) && !(float64(r.Uint64()>>11)/(1<<53) < p) {
				continue // a dead edge
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
func (ic *IC) SimulateCount(src graph.V, blocked []bool, r *rng.Source, ws *Workspace) int {
	skip := ic.mask(blocked)
	ws.reset()
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		to, ps := ic.out(u)
		for i, v := range to {
			if skip != nil && skip[v] {
				continue
			}
			if ws.stamp[v] == ws.epoch {
				continue // already active: at most one activation attempt matters
			}
			if p := ps[i]; p <= 0 || !(p >= 1) && !(float64(r.Uint64()>>11)/(1<<53) < p) {
				continue // a dead edge
			}
			ws.stamp[v] = ws.epoch
			ws.local[v] = int32(len(ws.orig))
			ws.orig = append(ws.orig, v)
			ws.queue = append(ws.queue, v)
		}
	}
	return len(ws.orig)
}
