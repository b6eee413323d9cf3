package datasets

import (
	"fmt"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Spec describes one of the paper's evaluation datasets (Table IV) together
// with the synthetic recipe that stands in for it. FullN/FullM are the
// published statistics; Generate produces a graph scaled to any fraction of
// that size with the same direction and average degree and a heavy-tailed
// degree distribution from preferential attachment.
type Spec struct {
	// Name is the paper's dataset name; Short is the axis label used in
	// Figures 5-11 (EC, F, W, EA, D, T, S, Y).
	Name  string
	Short string
	// FullN and FullM are Table IV's vertex and edge counts (undirected
	// datasets count each undirected edge once, as SNAP does).
	FullN, FullM int
	// Directed mirrors Table IV's Type column; undirected datasets are
	// materialized bidirectionally, as in the paper.
	Directed bool
}

// registry lists Table IV in its original order (sorted by edge count).
var registry = []Spec{
	{Name: "EmailCore", Short: "EC", FullN: 1_005, FullM: 25_571, Directed: true},
	{Name: "Facebook", Short: "F", FullN: 4_039, FullM: 88_234, Directed: false},
	{Name: "Wiki-Vote", Short: "W", FullN: 7_115, FullM: 103_689, Directed: true},
	{Name: "EmailAll", Short: "EA", FullN: 265_214, FullM: 420_045, Directed: true},
	{Name: "DBLP", Short: "D", FullN: 317_080, FullM: 1_049_866, Directed: false},
	{Name: "Twitter", Short: "T", FullN: 81_306, FullM: 1_768_149, Directed: true},
	{Name: "Stanford", Short: "S", FullN: 281_903, FullM: 2_312_497, Directed: true},
	{Name: "Youtube", Short: "Y", FullN: 1_134_890, FullM: 2_987_624, Directed: false},
}

// Registry returns the specs of all 8 datasets in Table IV order.
func Registry() []Spec {
	return append([]Spec(nil), registry...)
}

// ByName finds a spec by full or short name, case-sensitively.
func ByName(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name || s.Short == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names lists the full dataset names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// Generate produces the synthetic stand-in graph at the given scale
// (fraction of the full vertex count, clamped to at least 50 vertices) with
// a deterministic seed. Edge probabilities are 1; assign a propagation
// model afterwards.
func (s Spec) Generate(scale float64, seed uint64) *graph.Graph {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("datasets: scale %v out of (0,1]", scale))
	}
	n := int(float64(s.FullN) * scale)
	if n < 50 {
		n = 50
	}
	// Edges per arriving vertex to match the full graph's density. For
	// undirected datasets FullM counts undirected edges, each of which the
	// builder materializes in both directions.
	epv := float64(s.FullM) / float64(s.FullN)
	r := rng.New(seed ^ hashName(s.Name))
	return PreferentialAttachment(n, epv, s.Directed, r)
}

// hashName gives each dataset its own deterministic stream for a shared
// user seed (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// TableIV formats the generated graph's statistics next to the paper's
// published numbers, for the dataset-statistics check in cmd/gengraph.
func TableIV(scale float64, seed uint64) string {
	out := "Dataset      scale       n          m     d_avg    d_max   Type        (paper: n, m, expected d_avg)\n"
	for _, s := range registry {
		g := s.Generate(scale, seed)
		st := g.ComputeStats()
		typ := "Directed"
		if !s.Directed {
			typ = "Undirected"
		}
		// Our d_avg counts in+out over directed edges; undirected datasets
		// materialize both directions, doubling the published 2m/n figure.
		paperAvg := float64(2*s.FullM) / float64(s.FullN)
		if !s.Directed {
			paperAvg *= 2
		}
		out += fmt.Sprintf("%-12s %5.3f %8d %10d %8.1f %8d   %-10s  (%d, %d, %.1f)\n",
			s.Name, scale, st.N, st.M, st.AvgDegree, st.MaxDegree, typ,
			s.FullN, s.FullM, paperAvg)
	}
	return out
}
