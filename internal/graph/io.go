package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Edge-list I/O in the SNAP-style text format the paper's datasets ship in:
// one edge per line, whitespace-separated, '#' comments, optionally a third
// column with the propagation probability. Vertex ids in files may be sparse
// (SNAP files often are); they are remapped to the dense range [0,n) and the
// mapping is returned so callers can translate seed ids.

// ReadOptions controls edge-list parsing.
type ReadOptions struct {
	// Undirected adds each file edge in both directions.
	Undirected bool
	// DefaultP is the probability used for two-column lines. Three-column
	// lines always use the explicit value.
	DefaultP float64
}

// ReadEdgeList parses an edge list from r. It returns the graph and the
// original id of each dense vertex (origID[newID] = fileID). Probabilities
// outside [0,1] are clamped as Builder.AddEdge does; a NaN probability is
// an error.
func ReadEdgeList(r io.Reader, opts ReadOptions) (*Graph, []int64, error) {
	if opts.DefaultP == 0 {
		opts.DefaultP = 1
	}
	b := NewBuilder(0)
	idMap := make(map[int64]V)
	var origID []int64
	intern := func(raw int64) V {
		if v, ok := idMap[raw]; ok {
			return v
		}
		v := V(len(origID))
		idMap[raw] = v
		origID = append(origID, raw)
		return v
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad source id: %w", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad target id: %w", lineNo, err)
		}
		p := opts.DefaultP
		if len(fields) >= 3 {
			p, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad probability: %w", lineNo, err)
			}
			if math.IsNaN(p) {
				return nil, nil, fmt.Errorf("graph: line %d: probability is NaN", lineNo)
			}
		}
		du, dv := intern(u), intern(v)
		if opts.Undirected {
			b.AddUndirected(du, dv, p)
		} else {
			b.AddEdge(du, dv, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	b.EnsureVertices(len(origID))
	return b.Build(), origID, nil
}

// ReadEdgeListFile opens path and parses it with ReadEdgeList.
func ReadEdgeListFile(path string, opts ReadOptions) (*Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadEdgeList(f, opts)
}

// WriteEdgeList writes the graph as a three-column edge list with a header
// comment. Reading the output back with directed options reproduces the
// graph exactly (up to float formatting).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# directed edge list: %d vertices, %d edges\n", g.N(), g.M()); err != nil {
		return err
	}
	for u := V(0); int(u) < g.n; u++ {
		to := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		for i, v := range to {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, ps[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes the graph to path, creating or truncating it.
func (g *Graph) WriteEdgeListFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Stats summarizes a graph the way the paper's Table IV does.
type Stats struct {
	N         int     // vertices
	M         int     // directed edges
	AvgDegree float64 // average of in+out degree
	MaxDegree int     // maximum of in+out degree
	MaxOutDeg int
	MaxInDeg  int
	Isolated  int // vertices with no incident edge
	ProbMin   float64
	ProbMax   float64
	DegreeP90 int // 90th percentile of total degree
	DegreeMed int // median total degree
}

// ComputeStats scans the graph once and fills a Stats.
func (g *Graph) ComputeStats() Stats {
	st := Stats{N: g.N(), M: g.M(), ProbMin: 1, ProbMax: 0}
	if g.M() == 0 {
		st.ProbMin = 0
	}
	total := make([]int, g.n)
	for v := V(0); int(v) < g.n; v++ {
		din, dout := g.InDegree(v), g.OutDegree(v)
		total[v] = din + dout
		if total[v] == 0 {
			st.Isolated++
		}
		if din > st.MaxInDeg {
			st.MaxInDeg = din
		}
		if dout > st.MaxOutDeg {
			st.MaxOutDeg = dout
		}
		if total[v] > st.MaxDegree {
			st.MaxDegree = total[v]
		}
	}
	for _, p := range g.outP {
		if p < st.ProbMin {
			st.ProbMin = p
		}
		if p > st.ProbMax {
			st.ProbMax = p
		}
	}
	if g.n > 0 {
		st.AvgDegree = float64(2*g.M()) / float64(g.n)
		sort.Ints(total)
		st.DegreeMed = total[g.n/2]
		st.DegreeP90 = total[(g.n*9)/10]
	}
	return st
}
