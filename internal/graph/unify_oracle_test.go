package graph

// UnifySeedsOracle exposes the reference seed unification to the external
// graph_test package, whose tests compare UnifySeeds against it.
var UnifySeedsOracle = (*Graph).unifySeedsOracle

// unifySeedsOracle is the Builder-based form of UnifySeeds: it feeds the
// super-seed row and every surviving edge to a Builder and lets Build sort
// them and lay out both CSRs. UnifySeeds must match it bit for bit on any
// list of distinct seeds. It folds in every listed seed, repeats included,
// so callers pass it a deduplicated list.
func (g *Graph) unifySeedsOracle(seeds []V) (*Graph, V) {
	if len(seeds) == 0 {
		panic("graph: UnifySeeds with empty seed set")
	}
	isSeed := make([]bool, g.n)
	for _, s := range seeds {
		isSeed[s] = true
	}
	super := V(g.n)
	b := NewBuilder(g.n + 1)

	// Combined probability of seed influence per target vertex: start from
	// "probability none fires" and multiply. A target is listed on its
	// first seed edge, whatever that edge's probability.
	noFire := make([]float64, g.n)
	listed := make([]bool, g.n)
	touched := make([]V, 0, 64)
	for i := range noFire {
		noFire[i] = 1
	}
	for _, s := range seeds {
		to := g.OutNeighbors(s)
		ps := g.OutProbs(s)
		for i, v := range to {
			if isSeed[v] {
				continue
			}
			if !listed[v] {
				listed[v] = true
				touched = append(touched, v)
			}
			noFire[v] *= 1 - ps[i]
		}
	}
	for _, v := range touched {
		b.AddEdge(super, v, 1-noFire[v])
	}

	// Copy edges between non-seed vertices; drop any edge touching a seed.
	for u := V(0); int(u) < g.n; u++ {
		if isSeed[u] {
			continue
		}
		to := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		for i, v := range to {
			if !isSeed[v] {
				b.AddEdge(u, v, ps[i])
			}
		}
	}
	return b.Build(), super
}
