// Package imin is a Go library for minimizing the influence of
// misinformation in social networks by vertex blocking, implementing the
// ICDE 2023 paper "Minimizing the Influence of Misinformation via Vertex
// Blocking" (Xie, Zhang, Wang, Lin, Zhang; arXiv:2302.13529).
//
// # The problem
//
// Given a directed graph whose edges carry propagation probabilities under
// the independent cascade (IC) model, a set of seed vertices already
// affected by misinformation, and a budget b, find at most b non-seed
// vertices to block so that the expected spread of the misinformation is
// minimized. The problem is NP-hard and APX-hard, so the library provides
// the paper's fast heuristics:
//
//   - AdvancedGreedy: greedy selection driven by a sampled-graph +
//     dominator-tree estimator that scores every candidate blocker at once
//     (orders of magnitude faster than greedy with Monte-Carlo simulation,
//     with the same effectiveness).
//   - GreedyReplace: initializes with the seeds' out-neighbors and then
//     greedily replaces them, beating plain greedy at larger budgets.
//   - BaselineGreedy, Rand and OutDegree reference baselines.
//
// # Quick start
//
//	b := imin.NewBuilder(0)
//	b.AddEdge(0, 1, 0.5) // user 0 influences user 1 with probability 0.5
//	b.AddEdge(1, 2, 0.3)
//	g := b.Build()
//	res, err := imin.Minimize(g, []imin.Vertex{0}, 1, imin.Options{})
//	// res.Blockers now holds the best vertex to block.
//
// See the examples/ directory for complete programs: a quickstart, the
// paper's running example, an end-to-end synthetic social network study,
// and the linear-threshold extension.
package imin

import (
	"context"
	"time"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/exact"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Vertex identifies a graph vertex; vertices of a graph with n vertices are
// the dense range [0, n).
type Vertex = graph.V

// Edge is a directed influence edge with its propagation probability.
type Edge = graph.Edge

// Graph is an immutable directed probabilistic graph. Construct one with
// NewBuilder, FromEdges or ReadEdgeListFile.
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// Stats summarizes a graph (vertex/edge counts, degree distribution).
type Stats = graph.Stats

// NewBuilder returns a Builder for a graph with at least n vertices; the
// vertex count grows automatically as edges are added.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n vertices from an explicit edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeListFile parses a SNAP-style edge list ("u v [p]" lines, '#'
// comments). It returns the graph and the file's original vertex ids
// indexed by dense id. Set undirected to materialize each line in both
// directions; defaultP is used for two-column lines (0 means 1.0).
func ReadEdgeListFile(path string, undirected bool, defaultP float64) (*Graph, []int64, error) {
	return graph.ReadEdgeListFile(path, graph.ReadOptions{Undirected: undirected, DefaultP: defaultP})
}

// ReadBinaryGraphFile loads a graph stored in the library's binary format
// (written with Graph.WriteBinaryFile) — the fast path for the
// million-vertex datasets, loading without parsing or id interning.
func ReadBinaryGraphFile(path string) (*Graph, error) {
	return graph.ReadBinaryFile(path)
}

// Probability models for assigning edge probabilities, following the
// paper's experimental setting.
const (
	// Trivalency assigns each edge a probability uniformly from
	// {0.1, 0.01, 0.001}.
	Trivalency = graph.Trivalency
	// WeightedCascade assigns edge (u,v) probability 1/indegree(v).
	WeightedCascade = graph.WeightedCascade
)

// AssignProbabilities returns a copy of g with probabilities reassigned
// under the given model (Trivalency or WeightedCascade); seed drives the
// Trivalency randomness.
func AssignProbabilities(g *Graph, model graph.ProbModel, seed uint64) *Graph {
	return model.Assign(g, rng.New(seed))
}

// Algorithm selects the blocker-selection strategy.
type Algorithm = core.Algorithm

// Available algorithms.
const (
	Rand           = core.Rand
	OutDegree      = core.OutDegree
	BaselineGreedy = core.BaselineGreedy
	AdvancedGreedy = core.AdvancedGreedy
	GreedyReplace  = core.GreedyReplace
)

// Diffusion selects the diffusion model (IC or LT).
type Diffusion = core.Diffusion

// Diffusion models.
const (
	IC = core.DiffusionIC
	LT = core.DiffusionLT
)

// Options configures Minimize; see core.Options for field semantics. The
// zero value uses the paper's defaults (θ = 10⁴ sampled graphs, 10⁴
// Monte-Carlo rounds, IC model, all cores).
type Options = core.Options

// Result reports a Minimize run: the blocker set, runtime, and cost
// accounting.
type Result = core.Result

// Minimize selects at most b blockers for the given seed set using
// GreedyReplace, the paper's best heuristic. Use MinimizeWith to pick
// another algorithm.
func Minimize(g *Graph, seeds []Vertex, b int, opt Options) (Result, error) {
	return core.Solve(g, seeds, b, core.GreedyReplace, opt)
}

// MinimizeWith is Minimize with an explicit algorithm.
func MinimizeWith(g *Graph, seeds []Vertex, b int, alg Algorithm, opt Options) (Result, error) {
	return core.Solve(g, seeds, b, alg, opt)
}

// MinimizeContext is MinimizeWith with a cancelable context: when ctx is
// canceled the greedy loop stops at the next round boundary and the partial
// blocker set is returned with Result.Canceled set (no error), mirroring
// how Options.Timeout sets Result.TimedOut.
func MinimizeContext(ctx context.Context, g *Graph, seeds []Vertex, b int, alg Algorithm, opt Options) (Result, error) {
	return core.SolveContext(ctx, g, seeds, b, alg, opt)
}

// Session keeps per-graph solver state (each seed set's instance, a seed
// view of the graph, the live-edge sampler, and the estimator's worker
// scratch) warm across Minimize calls, so repeated solves on one graph
// skip all setup cost.
// Construct with NewSession; methods are safe for concurrent use but
// serialize internally. See core.Session for details.
type Session = core.Session

// SessionStats counts a Session's state reuse.
type SessionStats = core.SessionStats

// NewSession returns a warm-state solver session for g under the given
// diffusion model. workers bounds per-solve parallelism (0 = all cores).
// The session's diffusion model and worker count override the
// corresponding Options fields on every Solve (cached state must match
// the run). Caching never changes results: Session.Solve matches
// MinimizeContext exactly for equal (Seed, Theta) whenever the Options'
// Diffusion and Workers resolve to the session's own — note the estimator
// partitions samples per worker, so a session built with workers=2 only
// matches direct calls that also set Options.Workers=2.
func NewSession(g *Graph, d Diffusion, workers int) *Session {
	return core.NewSession(g, d, workers)
}

// EstimateSpread estimates the expected spread E(S, G[V\B]) of a blocker
// set by Monte-Carlo simulation with the given number of rounds (the seeds
// themselves count toward the spread).
func EstimateSpread(g *Graph, seeds []Vertex, blockers []Vertex, rounds int, opt Options) (float64, error) {
	return core.EvaluateSpread(g, seeds, blockers, rounds, opt)
}

// ExactSpread computes the exact expected spread from a single seed by
// edge-factoring — exponential in the probabilistic edge count, intended
// for graphs with at most a few hundred edges. nodeBudget caps the
// recursion (0 = default); exact.ErrBudget signals an instance beyond
// reach.
func ExactSpread(g *Graph, seed Vertex, blockers []Vertex, nodeBudget int) (float64, error) {
	blocked := make([]bool, g.N())
	for _, v := range blockers {
		blocked[v] = true
	}
	return exact.Spread(g, seed, blocked, nodeBudget)
}

// SpreadDecreasePerVertex runs the paper's Algorithm 2 once: it returns,
// for every vertex u, the estimated decrease of expected spread if u alone
// were blocked, using theta live-edge samples and their dominator trees.
// This is the estimator that powers AdvancedGreedy and GreedyReplace and
// is useful on its own for ranking influential cut-points.
func SpreadDecreasePerVertex(g *Graph, seed Vertex, theta int, rngSeed uint64) []float64 {
	est := core.NewEstimator(cascade.NewIC(g), 0)
	delta := make([]float64, g.N())
	est.DecreaseES(delta, seed, nil, theta, rng.New(rngSeed))
	return delta
}

// ThetaForGuarantee returns the sample count θ sufficient for the
// estimator's (ε, n^-l) relative-error guarantee of Theorem 5, given a
// lower bound on the true spread decrease.
func ThetaForGuarantee(n int, eps, l, optLowerBound float64) int {
	return core.ThetaBound(n, eps, l, optLowerBound)
}

// EdgeResult reports a MinimizeEdges run.
type EdgeResult = core.EdgeResult

// MinimizeEdges selects at most b *edges* to block (the link-blocking
// containment strategy) using the same sampled-graph + dominator-tree
// machinery through an edge-splitting transform: the spread decrease of
// removing edge (u,v) is the dominator-subtree weight of the auxiliary
// vertex u→x→v in each sample. All edges of g are candidates, including
// the seeds' own out-edges.
func MinimizeEdges(g *Graph, seeds []Vertex, b int, opt Options) (EdgeResult, error) {
	return core.SolveEdges(g, seeds, b, opt)
}

// Timeout is a convenience re-export so callers can set Options.Timeout
// without importing time in trivial programs.
type Timeout = time.Duration
