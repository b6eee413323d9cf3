package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
	"github.com/imin-dev/imin/internal/service"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlHotSolve  = "hot-solve"
	wlColdSolve = "cold-solve"
	wlMutateMix = "mutate-mix"
)

var workloadNames = []string{wlHotSolve, wlColdSolve, wlMutateMix}

// Shape of every generated request.
const (
	numSeeds     = 10  // seeds per solve, the paper's evaluation setting
	seedDraws    = 25  // candidate seed sets per request; the median-reach one is used
	budget       = 10  // blockers per solve
	hotSets      = 4   // hot-solve working set; equals core's per-session instance cache
	mutateOps    = 100 // mutations per mutate-mix batch
	solvesPerMut = 4   // mutate-mix: reuse_samples solves per mutate
	edgesPerVert = 5   // preferential-attachment out-edges per vertex
)

type opKind int

const (
	kindSolve opKind = iota
	kindMutate
)

func (k opKind) String() string {
	if k == kindMutate {
		return "mutate"
	}
	return "solve"
}

// op is one request of a workload's sequence: the exact bytes sent to the
// daemon plus their decoded form for the replay and the checks.
type op struct {
	id   int
	kind opKind
	body []byte
	// solve is set for solves; muts and mutSeq (1-based: the epoch the
	// batch must be acknowledged at) for mutates.
	solve  *service.SolveRequest
	muts   []dynamic.Mutation
	mutSeq uint64
}

// generateGraph builds the serving graph for a workload seed: directed
// preferential attachment with trivalency edge probabilities.
func generateGraph(n int, seed uint64) *graph.Graph {
	g := datasets.PreferentialAttachment(n, edgesPerVert, true, rng.New(seed))
	return graph.Trivalency.Assign(g, rng.New(seed^0x7112))
}

// generator emits one workload's op sequence. It is deterministic in
// (workload, seed, graph): ops come out in id order and the same inputs
// give byte-identical bodies. Not safe for concurrent use.
type generator struct {
	workload string
	r        *rng.Source
	g        *graph.Graph
	edges    *edgeSet // mutate-mix only
	hot      []*service.SolveRequest
	order    []int // hot-solve: permutation of the current block of hotSets ops
	next     int
	solves   int
	muts     uint64
}

func newGenerator(workload string, seed uint64, g *graph.Graph) (*generator, error) {
	gen := &generator{workload: workload, r: rng.New(seed ^ 0x6f70), g: g}
	switch workload {
	case wlHotSolve:
		for i := 0; i < hotSets; i++ {
			req, err := gen.solveRequest("greedy-replace", "IC", true)
			if err != nil {
				return nil, err
			}
			gen.hot = append(gen.hot, req)
		}
	case wlColdSolve:
	case wlMutateMix:
		for _, model := range []string{"IC", "LT"} {
			req, err := gen.solveRequest("greedy-replace", model, true)
			if err != nil {
				return nil, err
			}
			gen.hot = append(gen.hot, req)
		}
		gen.edges = newEdgeSet(g)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return gen, nil
}

// seedSet draws seedDraws uniform seed sets of out-degree-positive
// vertices and returns the one of median two-hop reach. A solve's cost and
// the spread left after it grow with the seed set's reach, which varies
// widely between uniform draws on a power-law graph; taking the median
// draw keeps each request typical, so a run's few hot seed sets cost about
// the same under every workload seed.
func (gen *generator) seedSet() ([]graph.V, error) {
	type draw struct {
		seeds []graph.V
		reach float64
	}
	draws := make([]draw, seedDraws)
	for i := range draws {
		seeds, err := datasets.RandomSeeds(gen.g, numSeeds, true, gen.r)
		if err != nil {
			return nil, err
		}
		draws[i] = draw{seeds, twoHopReach(gen.g, seeds)}
	}
	sort.SliceStable(draws, func(i, j int) bool { return draws[i].reach < draws[j].reach })
	return draws[seedDraws/2].seeds, nil
}

// twoHopReach is the expected number of vertices a seed set activates
// within two hops, ignoring overlaps: a cheap proxy of its spread.
func twoHopReach(g *graph.Graph, seeds []graph.V) float64 {
	var reach float64
	for _, s := range seeds {
		ps := g.OutProbs(s)
		for i, v := range g.OutNeighbors(s) {
			next := 1.0
			for _, p := range g.OutProbs(v) {
				next += p
			}
			reach += ps[i] * next
		}
	}
	return reach
}

// solveRequest draws a fresh seed set and request seed.
func (gen *generator) solveRequest(alg, model string, reuse bool) (*service.SolveRequest, error) {
	seeds, err := gen.seedSet()
	if err != nil {
		return nil, err
	}
	req := &service.SolveRequest{
		Seeds:        make([]int, len(seeds)),
		Budget:       budget,
		Algorithm:    alg,
		Model:        model,
		ReuseSamples: reuse,
		Seed:         gen.r.Uint64() >> 12, // JSON numbers stay exact below 2^53
	}
	for i, s := range seeds {
		req.Seeds[i] = int(s)
	}
	if !reuse {
		// Cold solves measure the paper's AG/GR cost alone: no
		// Monte-Carlo spread report around them.
		req.EvalRounds = -1
	}
	return req, nil
}

// warmup returns the solves issued during set-up, before the timed phase:
// every hot request once (instances and pools built), or for cold-solve
// one request per algorithm on seed sets the sequence never uses.
func (gen *generator) warmup() ([]op, error) {
	reqs := gen.hot
	if gen.workload == wlColdSolve {
		wr := &generator{workload: wlColdSolve, r: gen.r.Split(0x7761726d), g: gen.g}
		for _, alg := range []string{"advanced-greedy", "greedy-replace"} {
			req, err := wr.solveRequest(alg, "IC", false)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
	}
	ops := make([]op, len(reqs))
	for i, req := range reqs {
		o, err := solveOp(-1-i, req)
		if err != nil {
			return nil, err
		}
		ops[i] = o
	}
	return ops, nil
}

func solveOp(id int, req *service.SolveRequest) (op, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return op{}, err
	}
	return op{id: id, kind: kindSolve, body: body, solve: req}, nil
}

// Next returns the next op of the sequence.
func (gen *generator) Next() (op, error) {
	id := gen.next
	gen.next++
	switch gen.workload {
	case wlHotSolve:
		if id%hotSets == 0 {
			gen.order = gen.r.Perm(hotSets)
		}
		return solveOp(id, gen.hot[gen.order[id%hotSets]])
	case wlColdSolve:
		alg := "advanced-greedy"
		if id%2 == 1 {
			alg = "greedy-replace"
		}
		req, err := gen.solveRequest(alg, "IC", false)
		if err != nil {
			return op{}, err
		}
		return solveOp(id, req)
	default: // mutate-mix: solves*4, mutate, solves*4, mutate, ...
		if id%(solvesPerMut+1) == solvesPerMut {
			return gen.mutate(id)
		}
		req := gen.hot[gen.solves%2] // alternate IC and LT
		gen.solves++
		return solveOp(id, req)
	}
}

// mutate builds one valid-by-construction batch: add-edge, remove-edge and
// set-prob in turn, each drawn against the edge set as it stands after the
// batch's earlier mutations.
func (gen *generator) mutate(id int) (op, error) {
	gen.muts++
	muts := make([]dynamic.Mutation, mutateOps)
	n := gen.g.N()
	for i := range muts {
		switch i % 3 {
		case 0:
			var e edgeKey
			for {
				e = edgeKey{graph.V(gen.r.Intn(n)), graph.V(gen.r.Intn(n))}
				if e.u != e.v && !gen.edges.has(e) {
					break
				}
			}
			gen.edges.add(e)
			muts[i] = dynamic.Mutation{Op: dynamic.OpAddEdge, U: e.u, V: e.v, P: trivalency(gen.r)}
		case 1:
			e := gen.edges.random(gen.r)
			gen.edges.remove(e)
			muts[i] = dynamic.Mutation{Op: dynamic.OpRemoveEdge, U: e.u, V: e.v}
		default:
			e := gen.edges.random(gen.r)
			muts[i] = dynamic.Mutation{Op: dynamic.OpSetProb, U: e.u, V: e.v, P: trivalency(gen.r)}
		}
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body) // one JSON object per line: NDJSON
	for _, m := range muts {
		if err := enc.Encode(m); err != nil {
			return op{}, err
		}
	}
	return op{id: id, kind: kindMutate, body: body.Bytes(), muts: muts, mutSeq: gen.muts}, nil
}

// trivalency draws an edge probability the way graph.Trivalency assigns them.
func trivalency(r *rng.Source) float64 {
	return [...]float64{0.1, 0.01, 0.001}[r.Intn(3)]
}

type edgeKey struct{ u, v graph.V }

// edgeSet tracks the graph's edges through generated mutations, with
// uniform sampling of an existing edge.
type edgeSet struct {
	list []edgeKey
	pos  map[edgeKey]int
}

func newEdgeSet(g *graph.Graph) *edgeSet {
	s := &edgeSet{pos: make(map[edgeKey]int, g.M())}
	for u := graph.V(0); int(u) < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			s.add(edgeKey{u, v})
		}
	}
	return s
}

func (s *edgeSet) has(e edgeKey) bool { _, ok := s.pos[e]; return ok }

func (s *edgeSet) add(e edgeKey) {
	s.pos[e] = len(s.list)
	s.list = append(s.list, e)
}

func (s *edgeSet) remove(e edgeKey) {
	i := s.pos[e]
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.pos[last] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, e)
}

func (s *edgeSet) random(r *rng.Source) edgeKey { return s.list[r.Intn(len(s.list))] }
