package graph

// This file provides deterministic (probability-ignoring) traversals over the
// full edge set. They power structural checks, dataset statistics, and the
// exact algorithms; randomized live-edge traversal lives in package cascade.

// BFS visits every vertex reachable from src in breadth-first order and
// calls visit for each, including src itself. Edges are followed regardless
// of probability (probability 0 edges are still structural edges).
func (g *Graph) BFS(src V, visit func(V)) {
	seen := make([]bool, g.n)
	queue := make([]V, 0, 64)
	seen[src] = true
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		visit(u)
		for _, v := range g.OutNeighbors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
}

// Reachable returns the set of vertices reachable from src (including src)
// as a boolean slice of length N.
func (g *Graph) Reachable(src V) []bool {
	seen := make([]bool, g.n)
	seen[src] = true
	queue := []V{src}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range g.OutNeighbors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}
