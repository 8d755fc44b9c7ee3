package scenario

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolSize resolves a trial pool bound: workers when positive, else
// GOMAXPROCS.
func poolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForTrials runs fn(trial) for every trial in [0, trials) on a bounded
// pool of workers goroutines (workers ≤ 0 means GOMAXPROCS). On failure
// it stops handing out new trials and returns the lowest-indexed error
// among the trials that ran. It is the repository's one trial pool: the
// scenario runner executes every unit's trials on it, and
// internal/experiment runs its message-passing baselines on it.
//
// Determinism contract: trials are embarrassingly parallel because every
// trial draws from its own rng streams (derived from the master seed and
// the trial index, never from shared mutable state), and callers write
// results into per-trial slots which they aggregate in index order after
// the pool drains. Consequently the output is bit-identical for any
// worker count, including the sequential workers == 1 path.
func ForTrials(workers, trials int, fn func(trial int) error) error {
	if trials <= 0 {
		return nil
	}
	workers = min(poolSize(workers), trials)
	if workers == 1 {
		for trial := 0; trial < trials; trial++ {
			if err := fn(trial); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, trials)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				trial := int(next.Add(1)) - 1
				if trial >= trials || failed.Load() {
					return
				}
				if err := fn(trial); err != nil {
					errs[trial] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
