// Package engine is the shared concurrent execution layer for the
// repository's Monte Carlo workloads: it fans independent replications out
// over a worker pool and folds their results back together in a
// deterministic order, so every simulation produces byte-identical
// aggregates for a given seed regardless of the parallelism level.
//
// The three ingredients:
//
//   - Pool: a capacity-bounded set of execution slots shared across all
//     concurrent work (across experiments and within each experiment's
//     replication loop). Each Reduce call uses one dispatching goroutine
//     that hands contiguous task chunks to pool slots when available and
//     executes them itself otherwise (while the caller blocks folding
//     results), so a saturated pool degrades to sequential execution on the
//     dispatcher and nested use of one pool self-throttles without
//     deadlocking. Chunking bounds coordination overhead: a replication
//     loop costs a handful of goroutines and a recycled working set of
//     chunk buffers, not a goroutine and an allocation per task.
//   - Streams: per-replication RNG substreams split from a parent stream in
//     replication order before any work is dispatched, so the randomness a
//     replication consumes is a function of (seed, replication index) only.
//     Substreams are split in blocks (rng.SplitInto) into chunk-owned
//     storage; the derivation is draw-for-draw identical to per-task
//     splitting, so chunk boundaries are invisible to the results.
//   - Reduce/Map/Replicate: fan-out with a streaming, strictly in-order
//     fold. Results are consumed in replication order no matter when the
//     workers finish, which keeps floating-point accumulation order — and
//     therefore every reported digit — independent of scheduling.
//
// Cancellation is context-based: cancel the context (or let a timeout
// fire) and in-flight replications are abandoned at the next dispatch
// point, with the context error reported.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// Pool bounds the number of worker goroutines the engine runs tasks on in
// addition to each Reduce call's own dispatching goroutine (whose caller
// blocks folding results in the meantime). A nil *Pool is valid and runs
// everything on the dispatcher (fully sequential), which is the
// deterministic baseline the parallel paths are verified against.
type Pool struct {
	slots  chan struct{}
	parent *Pool // non-nil for Limit sub-pools: slots are drawn from it too
	size   int
	m      *poolMetrics
}

// poolMetrics accumulates the pool's cumulative execution counters. Limit
// sub-pools share their parent's instance, so the root pool's counters
// cover every request fanning out over it regardless of per-request caps.
type poolMetrics struct {
	busyNs       atomic.Int64
	chunksWorker atomic.Int64
	chunksInline atomic.Int64
}

// PoolMetrics is a point-in-time view of a pool's cumulative execution
// counters (see Pool.Metrics).
type PoolMetrics struct {
	// BusyNs is the total wall-clock time goroutines spent executing task
	// chunks — worker slots and inline dispatcher execution together.
	BusyNs int64
	// ChunksDispatched counts chunks run on a pool worker slot;
	// ChunksInline counts chunks the dispatcher executed itself because no
	// slot was free (the engine's saturation-degradation path).
	ChunksDispatched int64
	ChunksInline     int64
}

// NewPool returns a pool targeting n concurrently executing tasks. n ≤ 0
// selects GOMAXPROCS. The submitting goroutine itself counts as one
// executor, so NewPool(1) yields strictly sequential execution.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, n-1), size: n, m: &poolMetrics{}}
}

// Metrics returns the pool's cumulative execution counters (zero for a nil
// pool). For a Limit view the counters are the shared root pool's.
func (p *Pool) Metrics() PoolMetrics {
	if p == nil {
		return PoolMetrics{}
	}
	return PoolMetrics{
		BusyNs:           p.m.busyNs.Load(),
		ChunksDispatched: p.m.chunksWorker.Load(),
		ChunksInline:     p.m.chunksInline.Load(),
	}
}

// observeChunk records one executed chunk's wall-clock cost.
func (p *Pool) observeChunk(d time.Duration, worker bool) {
	if p == nil {
		return
	}
	p.m.busyNs.Add(d.Nanoseconds())
	if worker {
		p.m.chunksWorker.Add(1)
	} else {
		p.m.chunksInline.Add(1)
	}
}

// Limit returns a view of p capped at n concurrent tasks. The sub-pool
// draws every worker slot from p as well as from its own cap, so the
// worker goroutines running on any number of Limit views never exceed
// the parent's capacity; as with any Reduce, each caller's dispatching
// goroutine additionally executes tasks inline when no slot is free (the
// engine's usual saturation behavior), so total concurrency is bounded by
// parent capacity plus the number of concurrent callers — not by a fresh
// pool per caller, which is the escape this exists to close. The serving
// layer uses it to honor a per-request parallelism knob without letting
// requests multiply the shared bound. n ≤ 0 or n ≥ p.Size() returns p
// itself.
func (p *Pool) Limit(n int) *Pool {
	if p == nil || n <= 0 || n >= p.size {
		return p
	}
	return &Pool{slots: make(chan struct{}, n-1), parent: p, size: n, m: p.m}
}

// Size returns the target parallelism (1 for a nil pool).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// tryAcquire claims a worker slot without blocking. A Limit sub-pool must
// win both its own slot and one of the parent's.
func (p *Pool) tryAcquire() bool {
	if p == nil {
		return false
	}
	select {
	case p.slots <- struct{}{}:
	default:
		return false
	}
	if p.parent != nil && !p.parent.tryAcquire() {
		<-p.slots
		return false
	}
	return true
}

func (p *Pool) release() {
	if p.parent != nil {
		p.parent.release()
	}
	<-p.slots
}

// Streams splits n independent substreams off src in index order. The i-th
// stream depends only on src's state and i, never on execution order, so
// handing streams[i] to replication i keeps parallel runs seed-stable.
func Streams(src *rng.Stream, n int) []*rng.Stream {
	out := make([]*rng.Stream, n)
	for i := range out {
		out[i] = src.Split()
	}
	return out
}

// chunk carries one contiguous block of tasks through the fan-out: args
// holds the per-task state bound on the dispatcher (substreams, for the
// replication paths), vals the results, errs the per-task errors (allocated
// lazily — the common all-success chunk never pays for it). Chunks are the
// engine's scratch-reuse unit: the collector recycles each fully folded
// chunk back to the dispatcher, so a steady-state Reduce touches a bounded
// working set of buffers instead of allocating per task.
type chunk[T, A any] struct {
	start int
	args  []A
	vals  []T
	errs  []error
}

func (c *chunk[T, A]) setErr(k int, err error) {
	if c.errs == nil {
		c.errs = make([]error, len(c.args))
	}
	c.errs[k] = err
}

func (c *chunk[T, A]) errAt(k int) error {
	if c.errs == nil {
		return nil
	}
	return c.errs[k]
}

// chunkSize picks the task-block size for a run of n tasks on a pool of the
// given width: large enough to amortize dispatch overhead on long
// replication loops, small enough to keep every worker fed (several chunks
// per worker) and to degrade to per-task dispatch on short fan-outs, where
// per-cell progress and latency matter more than amortization. The choice
// only affects scheduling — bind order and fold order are fixed by index —
// so results are byte-identical at every chunk size.
func chunkSize(n, width int) int {
	c := n / (4 * width)
	if c < 1 {
		return 1
	}
	if c > 256 {
		return 256
	}
	return c
}

// Reduce runs fn(ctx, i) for i in [0, n) on the pool and feeds the results
// to reduce strictly in index order, streaming them as soon as each next
// index is available. After an error, no further reduce calls are made and
// outstanding work is cancelled. The returned error prefers real failures
// over cancellation echoes and, among the real failures observed, the one
// with the lowest index; when a run aborts because its own context was
// cancelled from outside, the context's error is returned. (Which tasks
// run far enough to fail can depend on scheduling, so with multiple
// independently failing tasks the surviving error is the earliest
// *observed*, not necessarily the earliest possible.)
func Reduce[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error), reduce func(i int, v T) error) error {
	return ReduceProgress(ctx, p, n, fn, reduce, nil)
}

// ReduceProgress is Reduce with a completion callback: as the collector
// folds each task, progress(done, n) is invoked with the number of tasks
// folded so far (done ascends 1..n; how the calls batch up in time depends
// on scheduling and chunking). progress runs on the collector goroutine, so it must be cheap and
// must not call back into the same Reduce; a nil progress is ignored. Long
// fan-outs (such as a parameter sweep) use it to expose live job counters
// without perturbing the deterministic fold.
func ReduceProgress[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error), reduce func(i int, v T) error, progress func(done, total int)) error {
	return reduceCore(ctx, p, n,
		func(int, []struct{}) {},
		func(ctx context.Context, i int, _ *struct{}) (T, error) { return fn(ctx, i) },
		reduce, progress)
}

// reduceCore is the shared fan-out/fold machinery. Tasks are dispatched in
// contiguous chunks: the dispatching goroutine binds each chunk's per-task
// state via bind(start, args) in strictly ascending index order immediately
// before the chunk starts, so order-sensitive setup (such as splitting RNG
// substreams) is a function of the index alone, never of scheduling. Each
// chunk then runs on a pool slot when one is free and inline on the
// dispatcher otherwise, and the collector folds chunks strictly in index
// order, recycling each folded chunk's buffers back to the dispatcher.
func reduceCore[T, A any](ctx context.Context, p *Pool, n int,
	bind func(start int, args []A),
	run func(ctx context.Context, i int, arg *A) (T, error),
	reduce func(i int, v T) error,
	progress func(done, total int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	size := chunkSize(n, p.Size())
	chunks := (n + size - 1) / size
	results := make(chan *chunk[T, A], chunks)
	free := make(chan *chunk[T, A], chunks)

	// Chunk timing is two clock reads per chunk (chunks batch up to 256
	// tasks), so the busy-ns instrumentation is invisible next to the work
	// itself — and it never touches the values, so determinism holds.
	exec := func(c *chunk[T, A], worker bool) {
		begin := time.Now()
		for k := range c.args {
			if err := ctx.Err(); err != nil {
				c.setErr(k, err)
				continue
			}
			v, err := runTask(ctx, run, c.start+k, &c.args[k])
			if err != nil {
				c.setErr(k, err)
				cancel() // abandon outstanding work at the next task boundary
				continue
			}
			c.vals[k] = v
		}
		p.observeChunk(time.Since(begin), worker)
		results <- c
	}

	go func() {
		var wg sync.WaitGroup
		for start := 0; start < n; start += size {
			count := min(size, n-start)
			var c *chunk[T, A]
			select {
			case c = <-free:
				c.args = c.args[:count]
				c.vals = c.vals[:count]
				c.errs = nil
			default:
				c = &chunk[T, A]{args: make([]A, count, size), vals: make([]T, count, size)}
			}
			c.start = start
			bind(start, c.args) // ascending index order: task i's setup is fixed by (src, i)
			if p.tryAcquire() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer p.release()
					exec(c, true)
				}()
			} else {
				exec(c, false)
			}
		}
		wg.Wait()
	}()

	// Fold chunks in index order, holding early finishers until their turn.
	pending := make(map[int]*chunk[T, A])
	next := 0 // next task index to fold
	done := 0
	var firstErr error
	firstErrIdx := n
	for folded := 0; folded < chunks; folded++ {
		c := <-results
		pending[c.start] = c
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			for k := range cur.args {
				done++
				if progress != nil {
					progress(done, n)
				}
				i := cur.start + k
				if err := cur.errAt(k); err != nil {
					// Prefer the earliest real failure; context errors only
					// matter if nothing else failed (they are
					// scheduling-dependent echoes of the cancellation itself).
					if preferErr(err, i, firstErr, firstErrIdx) {
						firstErr, firstErrIdx = err, i
					}
					continue
				}
				if firstErr == nil {
					if err := reduce(i, cur.vals[k]); err != nil {
						firstErr, firstErrIdx = err, i
						cancel()
					}
				}
			}
			next += len(cur.args)
			select {
			case free <- cur:
			default:
			}
		}
	}
	if firstErr != nil {
		// If every failure was a cancellation echo, the run was aborted from
		// outside: report the context's own error (deterministic) rather
		// than whichever task's echo happened to arrive first.
		if isContextErr(firstErr) && ctx.Err() != nil {
			return ctx.Err()
		}
		return firstErr
	}
	// Every task completed and was reduced; a cancellation that lands on
	// this boundary changed nothing, so the run is a success.
	return nil
}

// runTask runs task i, turning a panic into the task's error: tasks run on
// the engine's goroutines, where a panic no caller can recover would end
// the process. The first-error-by-index rule then reports it.
func runTask[T, A any](ctx context.Context, run func(ctx context.Context, i int, arg *A) (T, error), i int, arg *A) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: task %d panicked: %v", i, r)
		}
	}()
	return run(ctx, i, arg)
}

// preferErr reports whether the error observed at index idx should replace
// the current (firstErr, firstErrIdx) champion.
func preferErr(err error, idx int, firstErr error, firstErrIdx int) bool {
	if firstErr == nil {
		return true
	}
	errCtx := isContextErr(err)
	curCtx := isContextErr(firstErr)
	if curCtx != errCtx {
		return curCtx // real errors beat context echoes
	}
	return idx < firstErrIdx
}

// isContextErr reports whether err is (or wraps) a cancellation or
// deadline error — the scheduling-dependent echoes of an abort rather than
// its cause.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Map runs fn(ctx, i) for i in [0, n) on the pool and returns the results
// indexed by i.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Reduce(ctx, p, n, fn, func(i int, v T) error {
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Replicate fans reps scalar replications out over the pool. Replication i
// draws its randomness from the i-th substream of src and the observations
// are folded into the Running accumulator in replication order, so the
// returned aggregate is byte-identical at every parallelism level.
func Replicate(ctx context.Context, p *Pool, reps int, src *rng.Stream, fn func(ctx context.Context, rep int, s *rng.Stream) (float64, error)) (*stats.Running, error) {
	var r stats.Running
	if err := ReplicateInto(ctx, p, 0, reps, src, fn, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReplicateReduce is Replicate for replications with structured results:
// each replication gets its own substream, and reduce consumes the results
// strictly in replication order.
func ReplicateReduce[T any](ctx context.Context, p *Pool, reps int, src *rng.Stream, fn func(ctx context.Context, rep int, s *rng.Stream) (T, error), reduce func(rep int, v T) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return reduceCore(ctx, p, reps,
		// Blocks are split in ascending index order, so substream i is fixed
		// by (src, i) regardless of chunking or scheduling.
		func(_ int, args []rng.Stream) { src.SplitInto(args) },
		func(ctx context.Context, i int, s *rng.Stream) (T, error) { return fn(ctx, i, s) },
		reduce, nil)
}
