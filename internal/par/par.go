// Package par provides the small data-parallel helpers used by the
// all-pairs path computations, the throughput model and the experiment
// sweeps: a bounded worker pool over an index range with per-worker state,
// in the style HPC codes use for embarrassingly parallel loops.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// For runs body(i) for every i in [0, n) across the given number of workers
// (workers <= 0 selects DefaultWorkers). Iterations are distributed
// dynamically in chunks, so uneven per-iteration cost still balances.
func For(n, workers int, body func(i int)) {
	ForWorker(n, workers, func() any { return nil }, func(i int, _ any) { body(i) })
}

// ForWorker is For with per-worker state: setup runs once in each worker
// goroutine and its result is passed to every body invocation in that
// worker. This is how callers give each worker a private RNG, scratch
// buffer, or search engine without locking.
func ForWorker[S any](n, workers int, setup func() S, body func(i int, state S)) {
	ForWorkerFinish(n, workers, setup, body, func(S) {})
}

// ForShards splits [0, n) into one contiguous shard per worker and runs
// body(lo, hi) once per shard, concurrently. Unlike For's dynamic
// chunking, every worker owns one contiguous index range, so callers can
// write disjoint precomputed regions of shared output (e.g. a packed
// arena behind prefix-summed offsets) without locking. Shard boundaries
// depend only on (n, workers), never on scheduling.
func ForShards(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

// MapReduce runs body(i) for every i in [0, n) and merges per-worker
// partial results. setup creates a worker-local accumulator; merge folds
// each accumulator into the final result under a lock, in worker-completion
// order.
func MapReduce[S any](n, workers int, setup func() S, body func(i int, state S), merge func(state S)) {
	var mu sync.Mutex
	type wrapped struct{ s S }
	ForWorkerFinish(n, workers,
		func() *wrapped { return &wrapped{s: setup()} },
		func(i int, w *wrapped) { body(i, w.s) },
		func(w *wrapped) {
			mu.Lock()
			defer mu.Unlock()
			merge(w.s)
		})
}

// ForWorkerFinish is ForWorker plus a finish hook that runs once per worker
// after that worker's last iteration. It holds the one scheduler that
// For, ForWorker and MapReduce run on.
func ForWorkerFinish[S any](n, workers int, setup func() S, body func(i int, state S), finish func(state S)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		s := setup()
		for i := 0; i < n; i++ {
			body(i, s)
		}
		finish(s)
		return
	}
	// Chunked dynamic scheduling: amortizes the atomic per chunk while
	// keeping tail imbalance low.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := setup()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					finish(s)
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(i, s)
				}
			}
		}()
	}
	wg.Wait()
}
