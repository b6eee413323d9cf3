package cascade

import (
	"math"
	"slices"
	"testing"

	"github.com/imin-dev/imin/internal/dominator"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// The oracle samplers below are IC.Sample, IC.SimulateCount and LT.choice
// as they were before their coins were written out in place: every coin
// goes through rng.Source.Bernoulli or Float64, and a sample's CSR through
// FlowGraph.Build. TestInlineCoinsMatchOracle checks the production
// samplers against them draw for draw.

func oracleICSample(ic *IC, src graph.V, blocked []bool, r *rng.Source, ws *Workspace) *SampledGraph {
	ws.reset()
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		lu := ws.local[u]
		to := ic.g.OutNeighbors(u)
		ps := ic.g.OutProbs(u)
		for i, v := range to {
			if blocked != nil && blocked[v] {
				continue
			}
			if !r.Bernoulli(ps[i]) {
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
	ws.sg.Orig = ws.orig
	ws.sg.Build(len(ws.orig), ws.eFrom, ws.eTo)
	return &ws.sg
}

func oracleICSimulateCount(ic *IC, src graph.V, blocked []bool, r *rng.Source, ws *Workspace) int {
	ws.reset()
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		to := ic.g.OutNeighbors(u)
		ps := ic.g.OutProbs(u)
		for i, v := range to {
			if blocked != nil && blocked[v] {
				continue
			}
			if ws.stamp[v] == ws.epoch {
				continue
			}
			if r.Bernoulli(ps[i]) {
				ws.stamp[v] = ws.epoch
				ws.local[v] = int32(len(ws.orig))
				ws.orig = append(ws.orig, v)
				ws.queue = append(ws.queue, v)
			}
		}
	}
	return len(ws.orig)
}

func oracleLTChoice(lt *LT, v graph.V, r *rng.Source, ws *Workspace) graph.V {
	if ws.ltStamp[v] == ws.epoch {
		return ws.ltChoice[v]
	}
	ws.ltStamp[v] = ws.epoch
	chosen := graph.V(-1)
	x := r.Float64()
	acc := 0.0
	in := lt.g.InNeighbors(v)
	ps := lt.g.InProbs(v)
	for i, u := range in {
		acc += ps[i]
		if x < acc {
			chosen = u
			break
		}
	}
	ws.ltChoice[v] = chosen
	return chosen
}

// oracleLTSample and oracleLTSimulateCount are LT.Sample and
// LT.SimulateCount over oracleLTChoice.
func oracleLTSample(lt *LT, src graph.V, blocked []bool, r *rng.Source, ws *Workspace) *SampledGraph {
	ws.reset()
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		lu := ws.local[u]
		for _, v := range lt.g.OutNeighbors(u) {
			if blocked != nil && blocked[v] {
				continue
			}
			if oracleLTChoice(lt, v, r, ws) != u {
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
	ws.sg.Orig = ws.orig
	ws.sg.Build(len(ws.orig), ws.eFrom, ws.eTo)
	return &ws.sg
}

func oracleLTSimulateCount(lt *LT, src graph.V, blocked []bool, r *rng.Source, ws *Workspace) int {
	ws.reset()
	ws.reach(src)
	ws.queue = append(ws.queue, src)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		for _, v := range lt.g.OutNeighbors(u) {
			if blocked != nil && blocked[v] {
				continue
			}
			if ws.stamp[v] == ws.epoch {
				continue
			}
			if oracleLTChoice(lt, v, r, ws) != u {
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

// coinProbs are the probabilities the coin test writes onto edges: both
// zeros, the smallest subnormal, a tiny normal, a fair coin, the largest
// double below 1, 1, and two values no graph constructor lets through
// (1.5 and NaN), written into the graph's arrays directly.
var coinProbs = []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 0.5, 1 - 0x1p-53, 1, 1.5, math.NaN()}

// coinGraph is a random directed graph on n vertices. A third of its
// edges carry one of coinProbs, in its out-rows and its in-rows alike; the
// rest carry a uniform share of 1 spread over their row, so LT in-rows also
// sum below 1 and trigger choices land anywhere in [0, 1).
func coinGraph(n, m int, r *rng.Source) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), 0.5)
	}
	g := b.Build()
	for u := graph.V(0); int(u) < n; u++ {
		for _, ps := range [][]float64{g.OutProbs(u), g.InProbs(u)} {
			for i := range ps {
				if r.Intn(3) == 0 {
					ps[i] = coinProbs[r.Intn(len(coinProbs))]
				} else {
					ps[i] = r.Float64() / float64(len(ps))
				}
			}
		}
	}
	return g
}

// sameSample reports whether two samples match array for array.
func sameSample(a, b *SampledGraph) bool {
	return slices.Equal(a.Orig, b.Orig) && a.N == b.N &&
		slices.Equal(a.OutStart, b.OutStart) && slices.Equal(a.OutTo, b.OutTo) &&
		slices.Equal(a.InStart, b.InStart) && slices.Equal(a.InTo, b.InTo)
}

// TestInlineCoinsMatchOracle checks IC and LT against the Bernoulli and
// Float64 oracles draw for draw: on random graphs whose probabilities
// include the values of coinProbs, every sample, every count and
// the rng state after each call must be the oracle's. One run of each
// stream covers a whole sequence of calls, with and without blocked
// vertices, so a single extra or missing draw shows in everything after it.
func TestInlineCoinsMatchOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		gr := rng.New(seed)
		n := 2 + gr.Intn(40)
		g := coinGraph(n, gr.Intn(6*n), gr)
		ic, lt := NewIC(g), NewLT(g)
		icWS, icOracleWS := ic.NewWorkspace(), ic.NewWorkspace()
		ltWS, ltOracleWS := lt.NewWorkspace(), lt.NewWorkspace()
		r, ro := rng.New(seed*7919), rng.New(seed*7919)
		blocked := make([]bool, n)
		for call := 0; call < 200; call++ {
			clear(blocked)
			src := graph.V(gr.Intn(n))
			if call%2 == 1 {
				for v := range blocked {
					blocked[v] = graph.V(v) != src && gr.Intn(5) == 0
				}
			}
			var got, want *SampledGraph
			var gotN, wantN int
			switch call % 4 {
			case 0, 1:
				got, want = ic.Sample(src, blocked, r, icWS), oracleICSample(ic, src, blocked, ro, icOracleWS)
				gotN, wantN = ic.SimulateCount(src, blocked, r, icWS), oracleICSimulateCount(ic, src, blocked, ro, icOracleWS)
			default:
				got, want = lt.Sample(src, blocked, r, ltWS), oracleLTSample(lt, src, blocked, ro, ltOracleWS)
				gotN, wantN = lt.SimulateCount(src, blocked, r, ltWS), oracleLTSimulateCount(lt, src, blocked, ro, ltOracleWS)
			}
			if !sameSample(got, want) {
				t.Fatalf("seed %d call %d: sample %+v, oracle %+v", seed, call, *got, *want)
			}
			if gotN != wantN {
				t.Fatalf("seed %d call %d: count %d, oracle %d", seed, call, gotN, wantN)
			}
			if *r != *ro {
				t.Fatalf("seed %d call %d: rng state %+v, oracle %+v", seed, call, *r, *ro)
			}
		}
	}
}

// TestTreeCSRMatchesBuild checks buildCSR's direct tree CSR: every tree
// sample that IC, LT and the triggering sampler draw must equal
// FlowGraph.Build of the same edge list array for array. The graphs and
// probabilities make both tree and non-tree samples common, so the
// workspace's arrays also alternate between the two writers.
func TestTreeCSRMatchesBuild(t *testing.T) {
	trees, others := 0, 0
	for seed := uint64(1); seed <= 10; seed++ {
		gr := rng.New(seed)
		n := 5 + gr.Intn(60)
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(graph.V(gr.Intn(n)), graph.V(gr.Intn(n)), 0.1+0.5*gr.Float64())
		}
		g := b.Build()
		for _, s := range []LiveSampler{NewIC(g), NewLT(g), NewTriggering(g, ICTrigger)} {
			ws := s.NewWorkspace()
			r := rng.New(seed)
			for i := 0; i < 300; i++ {
				sg := s.Sample(graph.V(gr.Intn(n)), nil, r, ws)
				if len(ws.eFrom) != sg.N-1 {
					others++
					continue
				}
				trees++
				var want dominator.FlowGraph
				want.Build(sg.N, ws.eFrom, ws.eTo)
				if sg.N != want.N || !slices.Equal(sg.OutStart, want.OutStart) || !slices.Equal(sg.OutTo, want.OutTo) ||
					!slices.Equal(sg.InStart, want.InStart) || !slices.Equal(sg.InTo, want.InTo) {
					t.Fatalf("seed %d sample %d: tree CSR %+v, Build %+v", seed, i, sg.FlowGraph, want)
				}
			}
		}
	}
	if trees == 0 || others == 0 {
		t.Fatalf("%d tree and %d other samples: both kinds must occur", trees, others)
	}
}
