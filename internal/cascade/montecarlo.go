package cascade

import (
	"reflect"
	"runtime"
	"sync"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Monte-Carlo spread estimation (the paper's MCS): repeat forward diffusion
// r times and average the activation counts. This is the engine behind
// BaselineGreedy (Algorithm 1) and behind all effectiveness measurements in
// the evaluation (the expected spreads of Table VII are MCS estimates).

// EstimateSpread runs rounds forward simulations from src on s's graph,
// skipping blocked vertices, and returns the average number of activated
// vertices including src. The estimate converges to E({src}, G[V\B]) by
// Lemma 1.
func EstimateSpread(s LiveSampler, src graph.V, blocked []bool, rounds int, r *rng.Source) float64 {
	if rounds <= 0 {
		panic("cascade: EstimateSpread with non-positive rounds")
	}
	return float64(simulate(s, src, blocked, rounds, r, s.NewWorkspace())) / float64(rounds)
}

// simulate sums the activation counts of rounds forward simulations.
func simulate(s LiveSampler, src graph.V, blocked []bool, rounds int, r *rng.Source, ws *Workspace) int64 {
	var total int64
	for i := 0; i < rounds; i++ {
		total += int64(s.SimulateCount(src, blocked, r, ws))
	}
	return total
}

// Workspaces keeps EstimateSpreadParallel's per-worker Workspaces across
// calls, so repeated estimates allocate their n-sized scratch once. A
// Workspace made by one sampler type serves every sampler of that type
// whose id space is at most as large; a call with another type starts the
// set over, and a larger id space replaces the workspaces it outgrows. The
// zero value is ready to use. It must not be shared by concurrent calls.
type Workspaces struct {
	kind reflect.Type // the sampler type that made ws
	ws   []*Workspace
}

// get returns worker w's Workspace for s, allocating it when there is none
// that fits. A nil receiver keeps nothing and allocates every time.
func (c *Workspaces) get(s LiveSampler, w int) *Workspace {
	if c == nil {
		return s.NewWorkspace()
	}
	if kind := reflect.TypeOf(s); kind != c.kind {
		c.kind, c.ws = kind, nil
	}
	for len(c.ws) <= w {
		c.ws = append(c.ws, nil)
	}
	if c.ws[w] == nil || c.ws[w].n < s.N() {
		c.ws[w] = s.NewWorkspace()
	}
	return c.ws[w]
}

// EstimateSpreadParallel is EstimateSpread fanned out over workers
// goroutines, each with an independent random stream split from base.
// workers <= 0 selects GOMAXPROCS. The result is deterministic for a fixed
// (base seed, workers) pair. Worker w samples in scratch's w-th Workspace;
// a nil scratch allocates fresh ones for this call.
func EstimateSpreadParallel(s LiveSampler, src graph.V, blocked []bool, rounds, workers int, base *rng.Source, scratch *Workspaces) float64 {
	if rounds <= 0 {
		panic("cascade: EstimateSpreadParallel with non-positive rounds")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rounds {
		workers = rounds
	}
	if workers <= 1 {
		return float64(simulate(s, src, blocked, rounds, base.Split(0), scratch.get(s, 0))) / float64(rounds)
	}
	totals := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		share := rounds / workers
		if w < rounds%workers {
			share++
		}
		r, ws := base.Split(uint64(w)), scratch.get(s, w)
		wg.Add(1)
		go func(w, share int, r *rng.Source, ws *Workspace) {
			defer wg.Done()
			totals[w] = simulate(s, src, blocked, share, r, ws)
		}(w, share, r, ws)
	}
	wg.Wait()
	var total int64
	for _, t := range totals {
		total += t
	}
	return float64(total) / float64(rounds)
}

// SpreadEstimator bundles a sampler with fixed estimation parameters so
// higher layers can treat "evaluate this blocker set" as one call.
type SpreadEstimator struct {
	Sampler LiveSampler
	Rounds  int
	Workers int
}

// Spread estimates E({src}, G[V\B]) for the blocker set encoded in blocked.
// Each call derives a fresh child stream from base, so repeated evaluations
// are independent yet reproducible.
func (e *SpreadEstimator) Spread(src graph.V, blocked []bool, base *rng.Source, call uint64) float64 {
	return EstimateSpreadParallel(e.Sampler, src, blocked, e.Rounds, e.Workers, base.Split(call), nil)
}
