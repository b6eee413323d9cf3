package graph

import (
	"errors"
	"fmt"
	"math"
)

// NewFromCSR builds a Graph directly from a forward CSR, taking ownership of
// the three slices. It is the fast-path constructor for callers that already
// hold adjacency in CSR form — the dynamic overlay's snapshot materialization
// (and, transitively, every epoch commit), UnifySeeds' multi-seed reduction
// and ReadBinary — and skips the Builder's edge-list sort entirely: the
// in-CSR is rebuilt by counting sort, so the total cost is O(n + m) with no
// comparison sorting.
//
// Requirements (panics otherwise, like validate): outStart has n+1 monotone
// entries bounding len(outTo); outTo and outP are parallel; every target is
// in [0, n); each row's targets are strictly ascending with no self-loop
// (the invariant Builder establishes and OutEdgeIndex's binary search relies
// on); probabilities are clamped to [0, 1] in place rather than rejected,
// NaN becoming 0, matching Builder.AddEdge.
func NewFromCSR(n int, outStart []int32, outTo []V, outP []float64) *Graph {
	g, err := newFromCSR(n, outStart, outTo, outP)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// newFromCSR is NewFromCSR reporting a malformed CSR as an error, which
// ReadBinary returns for a file that breaks the layout.
func newFromCSR(n int, outStart []int32, outTo []V, outP []float64) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	if len(outStart) != n+1 {
		return nil, fmt.Errorf("graph: outStart length %d for %d vertices", len(outStart), n)
	}
	if len(outTo) != len(outP) {
		return nil, errors.New("graph: outTo/outP length mismatch")
	}
	if outStart[0] != 0 || int(outStart[n]) != len(outTo) {
		return nil, errors.New("graph: CSR bounds corrupt")
	}
	// All offsets are checked before any row is read, so every row below
	// lies within outTo.
	for u := 0; u < n; u++ {
		if outStart[u] > outStart[u+1] {
			return nil, fmt.Errorf("graph: CSR offsets not monotone at %d", u)
		}
	}
	for u := 0; u < n; u++ {
		prev := V(-1)
		for j := outStart[u]; j < outStart[u+1]; j++ {
			v := outTo[j]
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: row %d: target %d out of range [0,%d)", u, v, n)
			}
			if v <= prev {
				return nil, fmt.Errorf("graph: row %d: targets not strictly ascending", u)
			}
			if v == V(u) {
				return nil, fmt.Errorf("graph: row %d: self-loop", u)
			}
			prev = v
		}
	}
	for i, p := range outP {
		if p < 0 || math.IsNaN(p) {
			outP[i] = 0
		} else if p > 1 {
			outP[i] = 1
		}
	}
	g := &Graph{n: n, outStart: outStart, outTo: outTo, outP: outP}
	g.rebuildIn()
	g.validate()
	return g, nil
}
