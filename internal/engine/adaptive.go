package engine

// Target-precision replication: instead of a fixed budget, the caller
// names a relative CI half-width and a hard ceiling, and the engine runs
// batched replication rounds until the estimate is tight enough or the
// budget is spent. The determinism contract survives because every
// scheduling decision is made at round boundaries from parallelism-
// invariant state: the round sizes are a fixed geometric schedule, the
// stopping statistic is a replication-order fold, and the substreams of
// round k+1 continue the source stream exactly where round k left it —
// so an adaptive run that stops at N replications is byte-identical to a
// fixed run of N, and identical at every parallelism level.

import (
	"context"
	"fmt"
	"math"

	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// DefaultFirstRound is the first-round replication count when a Precision
// does not set MinReplications: large enough for the variance estimate
// driving the stopping rule to be meaningful, small enough that easy specs
// stop almost immediately.
const DefaultFirstRound = 32

// Precision is a sequential stopping rule: run replications until the
// confidence interval for the mean is within TargetRelCI of the mean
// (relative half-width — 0.01 means ±1%), giving up at MaxReplications.
type Precision struct {
	// TargetRelCI is the target CI half-width as a fraction of |mean|.
	TargetRelCI float64
	// Confidence selects the critical value of the stopping CI (0 selects
	// 0.95). Only the stopping decision uses it: reported ci95 fields stay
	// 95% intervals whatever the knob, so response bytes for a given
	// replication count never depend on it.
	Confidence float64
	// MaxReplications is the hard work-budget ceiling.
	MaxReplications int
	// MinReplications sizes the first round (0 selects DefaultFirstRound).
	MinReplications int
}

// Validate reports whether the rule is well-formed.
func (pr Precision) Validate() error {
	if !(pr.TargetRelCI > 0) || math.IsInf(pr.TargetRelCI, 0) {
		return fmt.Errorf("engine: precision target %v must be positive and finite", pr.TargetRelCI)
	}
	if pr.Confidence != 0 && !(pr.Confidence > 0 && pr.Confidence < 1) {
		return fmt.Errorf("engine: precision confidence %v outside (0, 1)", pr.Confidence)
	}
	// One replication has no confidence interval to stop on.
	if pr.MaxReplications < 2 {
		return fmt.Errorf("engine: precision max_replications %d must be at least 2", pr.MaxReplications)
	}
	if pr.MinReplications < 0 {
		return fmt.Errorf("engine: precision min_replications %d must be nonnegative", pr.MinReplications)
	}
	return nil
}

// Z returns the critical value of the stopping CI.
func (pr Precision) Z() float64 {
	c := pr.Confidence
	if c == 0 {
		c = 0.95
	}
	return stats.ZScore(c)
}

// Met reports whether the accumulated estimate satisfies the rule:
// z·SE ≤ TargetRelCI·|mean|. A zero mean is only met by a zero SE (a
// deterministic observable stops at the first round; a noisy mean-zero
// one runs to the budget — there is no relative precision to reach).
func (pr Precision) Met(r *stats.Running) bool {
	if r.N() < 2 {
		return false
	}
	return pr.Z()*r.SE() <= pr.TargetRelCI*math.Abs(r.Mean())
}

// firstRound returns the size of round one, clamped to the budget.
func (pr Precision) firstRound() int {
	first := pr.MinReplications
	if first <= 0 {
		first = DefaultFirstRound
	}
	return min(first, pr.MaxReplications)
}

// AdaptiveRounds drives the deterministic round schedule: round sizes
// grow the cumulative total geometrically (first MinReplications, then
// doubling, capped at MaxReplications), round(start, n) executes
// replications [start, start+n), and met() is consulted only at round
// boundaries — so whether the run stops after N replications is a
// function of the fold over those N replications alone, never of
// scheduling. Returns the total replication count executed.
func AdaptiveRounds(ctx context.Context, pr Precision, round func(ctx context.Context, start, n int) error, met func() bool) (int, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	done := 0
	target := pr.firstRound()
	for {
		if err := round(ctx, done, target-done); err != nil {
			return done, err
		}
		done = target
		if done >= pr.MaxReplications || met() {
			return done, nil
		}
		target = min(2*done, pr.MaxReplications)
	}
}

// ReplicateInto is Replicate folding into a caller-owned accumulator:
// replication i draws the i-th substream of src and fn's index argument is
// offset by start, so two consecutive calls sharing src and into are
// byte-identical to one call covering both ranges. The adaptive paths are
// built on this property — each round continues the substream sequence
// and the fold exactly where the previous round stopped.
func ReplicateInto(ctx context.Context, p *Pool, start, reps int, src *rng.Stream, fn func(ctx context.Context, rep int, s *rng.Stream) (float64, error), into *stats.Running) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return reduceCore(ctx, p, reps,
		// Blocks are split in ascending index order, so substream i is fixed
		// by (src, i) regardless of chunking or scheduling.
		func(_ int, args []rng.Stream) { src.SplitInto(args) },
		func(ctx context.Context, i int, s *rng.Stream) (float64, error) { return fn(ctx, start+i, s) },
		func(_ int, v float64) error { into.Add(v); return nil }, nil)
}

// ReplicateAdaptive fans scalar replications out in adaptive rounds until
// the precision rule is met (or its budget spent), returning the
// accumulated estimate and the replication count used. Stopping at N
// yields the same bytes as Replicate with reps = N.
func ReplicateAdaptive(ctx context.Context, p *Pool, pr Precision, src *rng.Stream, fn func(ctx context.Context, rep int, s *rng.Stream) (float64, error)) (*stats.Running, int, error) {
	var r stats.Running
	used, err := AdaptiveRounds(ctx, pr,
		func(ctx context.Context, start, n int) error {
			return ReplicateInto(ctx, p, start, n, src, fn, &r)
		},
		func() bool { return pr.Met(&r) })
	if err != nil {
		return nil, used, err
	}
	return &r, used, nil
}
