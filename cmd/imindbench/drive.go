package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// result is the outcome of one op.
type result struct {
	op      op
	latency time.Duration // send to last byte
	err     string        // non-empty: the op failed
	// blockers is a solve's answer. epoch is the epoch the executor saw it
	// run at when known (the replay; a mutate's ack), and epochLo..epochHi
	// the epochs current while the request was in flight.
	blockers         []int
	epoch            uint64
	epochLo, epochHi uint64
}

// executor runs one op and fills res.
type executor func(ctx context.Context, o op, res *result)

// drive runs a closed loop: the callers pull ops from gen in sequence
// order, each sending its next op only after the previous one answered,
// until the deadline passes or maxOps ops were pulled (0: no limit). Mutate
// k is sent only after mutate k-1 was acknowledged, so batches commit in
// sequence order and mutate k lands at epoch k. Ops pulled before the stop
// run to completion, so the served ops are always a prefix of the sequence.
func drive(ctx context.Context, gen *generator, deadline time.Time, maxOps int, exec executor) ([]result, time.Duration, error) {
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		acked   uint64 // mutates answered
		started uint64 // mutates sent
		results []result
		genErr  error
		wg      sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if genErr != nil || ctx.Err() != nil || !time.Now().Before(deadline) || (maxOps > 0 && gen.next >= maxOps) {
					mu.Unlock()
					return
				}
				o, err := gen.Next()
				if err != nil {
					genErr = err
					mu.Unlock()
					return
				}
				if o.kind == kindMutate {
					for acked+1 < o.mutSeq {
						cond.Wait()
					}
					started = o.mutSeq
				}
				res := result{op: o, epochLo: acked}
				mu.Unlock()

				sent := time.Now()
				exec(ctx, o, &res)
				res.latency = time.Since(sent)

				mu.Lock()
				if o.kind == kindMutate {
					acked = o.mutSeq
					cond.Broadcast()
				}
				res.epochHi = started
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	sort.Slice(results, func(i, j int) bool { return results[i].op.id < results[j].op.id })
	return results, wall, genErr
}
