// Package diag is imind's flight recorder: per-solve cost accounting and
// SLO-triggered diagnostic bundles, built on top of internal/obs.
//
// The package deliberately lives outside the determinism-linted core: it is
// free to read wall clocks and write ordinary files, because nothing here
// influences solve results — tests assert blockers are bit-identical with
// cost accounting on and off.
package diag

import "time"

// SolveCost is the per-request cost model returned in solve responses as the
// "cost" block and attached to the root trace span. All *_ns fields are
// wall-clock nanoseconds measured on the request goroutine (the solve path is
// CPU-bound, so wall ns on the solving goroutine is the CPU-ns proxy; queue
// fields are pure wait). Sample counts come straight from the core's
// Result/RoundInfo/RepairStats accounting, so the block explains where a
// solve's budget went: admission wait, session repair, instance builds, θ
// sampling, dirty reprocessing, and stolen cross-shard work.
type SolveCost struct {
	// Queue waits: the per-(graph,model) session queue and the bounded
	// solve pool.
	QueueSessionNS int64 `json:"queue_session_ns"`
	QueueSlotNS    int64 `json:"queue_slot_ns"`
	// MigrateNS is session repair after a mutation batch (0 when the
	// session was already at the graph's epoch).
	MigrateNS int64 `json:"migrate_ns,omitempty"`
	// PrepareNS is the build of the seed set's instance: its seed view
	// (seed mask and folded super-seed row), candidate fences and
	// estimator (0 when the session already held it).
	PrepareNS int64 `json:"prepare_ns,omitempty"`
	// SolveNS is the greedy loop proper (core.Result.Runtime).
	SolveNS int64 `json:"solve_ns"`
	// EvalNS is the optional before/after spread evaluation, including
	// the draw of the seed set's held-out samples when this solve made it.
	EvalNS int64 `json:"eval_ns,omitempty"`
	// TotalNS is end-to-end handler time for this solve item.
	TotalNS int64 `json:"total_ns"`

	// Rounds and RoundNS accumulate the OnRound hook: greedy rounds
	// observed and their summed duration.
	Rounds  int64 `json:"rounds"`
	RoundNS int64 `json:"round_ns"`

	// SamplesDrawn is live-edge graphs sampled fresh (θ work);
	// SamplesDirty is stored samples re-processed by incremental rounds;
	// SamplesStolen is cross-shard work-stealing volume;
	// SamplesRedrawn/SamplesKept are the migrate step's pool-repair
	// economics.
	SamplesDrawn   int64 `json:"samples_drawn"`
	SamplesDirty   int64 `json:"samples_dirty"`
	SamplesStolen  int64 `json:"samples_stolen,omitempty"`
	SamplesRedrawn int64 `json:"samples_redrawn,omitempty"`
	SamplesKept    int64 `json:"samples_kept,omitempty"`

	// PoolBytes is the resident sample-pool footprint of the session that
	// served this solve: reuse_samples pools and the spread report's
	// held-out samples.
	PoolBytes int64 `json:"pool_bytes,omitempty"`
	// InstanceBytes is the footprint of the seed-set instances that
	// session caches, beyond the graph itself: seed masks, super rows and
	// candidate fences.
	InstanceBytes int64 `json:"instance_bytes,omitempty"`
	// MCSSimulations counts the Monte-Carlo spread simulations
	// baseline-greedy's selection ran; the spread report runs none.
	MCSSimulations int64 `json:"mcs_simulations,omitempty"`
}

// AddRound folds one OnRound callback into the cost model. It is plain field
// arithmetic — no locks, no allocation — so it rides inside the hot per-round
// hook without moving benchcore's ≤2 % instrumentation-overhead bar.
func (c *SolveCost) AddRound(d time.Duration, dirty, stolen int64) {
	c.Rounds++
	c.RoundNS += int64(d)
	c.SamplesDirty += dirty
	c.SamplesStolen += stolen
}
