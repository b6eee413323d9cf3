// Package harness reruns the paper's evaluation (Section VI): one runner
// per table and figure, each producing the same rows or series the paper
// reports. EXPERIMENTS.md records the measured shapes next to the paper's.
//
// Parameters default to a laptop-scale configuration (datasets at a few
// percent of their published size, θ and Monte-Carlo rounds reduced
// tenfold); every knob can be raised to the paper's settings through
// Config. The claims under test are ratio- and ordering-shaped (who wins,
// by how many orders of magnitude, where curves cross), which survive the
// scaling; see DESIGN.md §4.
package harness

import (
	"io"
	"time"

	"github.com/imin-dev/imin/internal/core"
)

// Config carries the shared experiment parameters.
type Config struct {
	// Scale is the fraction of each dataset's published size to generate
	// (Table IV stand-ins). Default 0.02.
	Scale float64
	// Theta is the sampled-graph count per estimation round (paper: 10⁴).
	// Default 1000.
	Theta int
	// MCSRounds is BaselineGreedy's per-evaluation Monte-Carlo rounds
	// (paper: 10⁴). Default 1000.
	MCSRounds int
	// EvalRounds is the Monte-Carlo rounds used to measure the expected
	// spread of a finished blocker set (paper: 10⁵). Default 10⁴.
	EvalRounds int
	// NumSeeds is the seed-set size (paper: 10 random vertices).
	NumSeeds int
	// Workers bounds parallelism; 0 = GOMAXPROCS.
	Workers int
	// Seed drives all randomness; equal configs reproduce results exactly.
	Seed uint64
	// Timeout caps each single algorithm run, standing in for the paper's
	// 24-hour limit. Default 15s.
	Timeout time.Duration
	// Datasets filters to the named datasets (full or short names); empty
	// means all 8.
	Datasets []string
	// Out receives the formatted tables; nil discards them.
	Out io.Writer
}

// WithDefaults fills unset fields with the laptop-scale defaults.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.02
	}
	if c.Theta == 0 {
		c.Theta = 1000
	}
	if c.MCSRounds == 0 {
		c.MCSRounds = 1000
	}
	if c.EvalRounds == 0 {
		c.EvalRounds = 10000
	}
	if c.NumSeeds == 0 {
		c.NumSeeds = 10
	}
	if c.Timeout == 0 {
		c.Timeout = 15 * time.Second
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// solveOptions converts the shared knobs into core.Options.
func (c Config) solveOptions(diffusion core.Diffusion, seed uint64) core.Options {
	return core.Options{
		Theta:     c.Theta,
		MCSRounds: c.MCSRounds,
		Workers:   c.Workers,
		Seed:      seed,
		Diffusion: diffusion,
		Timeout:   c.Timeout,
	}
}
