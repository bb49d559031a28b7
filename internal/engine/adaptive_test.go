package engine

import (
	"context"
	"math"
	"testing"

	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// noisyMean is a scalar replication function with known mean 1 and
// moderate noise: mean 1, sd ~0.29.
func noisyMean(_ context.Context, _ int, s *rng.Stream) (float64, error) {
	return 0.5 + s.Float64(), nil
}

// TestAdaptiveMatchesFixedBitwise: an adaptive run that stops at N must be
// byte-identical to a fixed run of N replications — same mean, same m2,
// same every digit — because rounds continue the substream sequence and
// the fold.
func TestAdaptiveMatchesFixedBitwise(t *testing.T) {
	ctx := context.Background()
	pr := Precision{TargetRelCI: 0.01, MaxReplications: 100000}
	r, used, err := ReplicateAdaptive(ctx, NewPool(4), pr, rng.New(5), noisyMean)
	if err != nil {
		t.Fatal(err)
	}
	if used <= 0 || used > pr.MaxReplications {
		t.Fatalf("used = %d outside (0, %d]", used, pr.MaxReplications)
	}
	fixed, err := Replicate(ctx, NewPool(4), used, rng.New(5), noisyMean)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean() != fixed.Mean() || r.Var() != fixed.Var() || r.N() != fixed.N() {
		t.Fatalf("adaptive(%d) != fixed(%d): mean %v vs %v, var %v vs %v",
			used, used, r.Mean(), fixed.Mean(), r.Var(), fixed.Var())
	}
}

// TestAdaptiveParallelismInvariant: the replication count used and every
// digit of the estimate must match across pool widths.
func TestAdaptiveParallelismInvariant(t *testing.T) {
	ctx := context.Background()
	pr := Precision{TargetRelCI: 0.005, MaxReplications: 200000}
	r1, used1, err := ReplicateAdaptive(ctx, NewPool(1), pr, rng.New(17), noisyMean)
	if err != nil {
		t.Fatal(err)
	}
	r8, used8, err := ReplicateAdaptive(ctx, NewPool(8), pr, rng.New(17), noisyMean)
	if err != nil {
		t.Fatal(err)
	}
	if used1 != used8 {
		t.Fatalf("used: %d at parallel=1 vs %d at parallel=8", used1, used8)
	}
	if r1.Mean() != r8.Mean() || r1.Var() != r8.Var() {
		t.Fatalf("estimates differ across parallelism: %v/%v vs %v/%v",
			r1.Mean(), r1.Var(), r8.Mean(), r8.Var())
	}
}

// TestAdaptiveSchedule pins the geometric round schedule: with a rule that
// never triggers, rounds visit 32, 64, 128, … and stop at the ceiling.
func TestAdaptiveSchedule(t *testing.T) {
	var starts, sizes []int
	used, err := AdaptiveRounds(context.Background(),
		Precision{TargetRelCI: 1e-12, MaxReplications: 300},
		func(_ context.Context, start, n int) error {
			starts = append(starts, start)
			sizes = append(sizes, n)
			return nil
		},
		func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if used != 300 {
		t.Fatalf("used = %d, want the 300 ceiling", used)
	}
	wantStarts := []int{0, 32, 64, 128, 256}
	wantSizes := []int{32, 32, 64, 128, 44}
	for i := range wantStarts {
		if i >= len(starts) || starts[i] != wantStarts[i] || sizes[i] != wantSizes[i] {
			t.Fatalf("rounds %v/%v, want starts %v sizes %v", starts, sizes, wantStarts, wantSizes)
		}
	}
}

// TestAdaptiveStopsEarlyOnEasySpec: a deterministic observable must stop
// at the first round, far below the ceiling.
func TestAdaptiveStopsEarlyOnEasySpec(t *testing.T) {
	_, used, err := ReplicateAdaptive(context.Background(), nil,
		Precision{TargetRelCI: 0.01, MaxReplications: 100000}, rng.New(1),
		func(_ context.Context, _ int, _ *rng.Stream) (float64, error) { return 3.5, nil })
	if err != nil {
		t.Fatal(err)
	}
	if used != DefaultFirstRound {
		t.Fatalf("used = %d, want the first round %d", used, DefaultFirstRound)
	}
}

// TestSequentialCICoverage measures the coverage of the sequential rule's
// final interval over a grid of fixed seeds: the nominal level is 95%, and
// sequential stopping is allowed to under-cover by a few points (optional
// stopping bias), but not collapse. The observable is uniform with true
// mean 1, so coverage counts |mean−1| ≤ z·SE at the stopping time.
func TestSequentialCICoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage grid is slow")
	}
	ctx := context.Background()
	pr := Precision{TargetRelCI: 0.02, MaxReplications: 100000}
	const seeds = 400
	covered := 0
	for seed := uint64(0); seed < seeds; seed++ {
		r, _, err := ReplicateAdaptive(ctx, nil, pr, rng.New(seed), noisyMean)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Mean()-1) <= pr.Z()*r.SE() {
			covered++
		}
	}
	cov := float64(covered) / seeds
	// ~5% under-coverage tolerance on top of the nominal 5% miss rate.
	if cov < 0.90 {
		t.Fatalf("sequential CI coverage %.3f below 0.90 (%d/%d)", cov, covered, seeds)
	}
}

// TestPrecisionMetZeroMean: a mean-zero noisy observable has no relative
// target to reach; Met must hold only when the SE is zero as well.
func TestPrecisionMetZeroMean(t *testing.T) {
	pr := Precision{TargetRelCI: 0.01, MaxReplications: 100}
	var r stats.Running
	r.Add(1)
	r.Add(-1)
	if pr.Met(&r) {
		t.Fatal("Met on a noisy mean-zero accumulator")
	}
	var d stats.Running
	d.Add(0)
	d.Add(0)
	if !pr.Met(&d) {
		t.Fatal("not Met on a deterministic zero accumulator")
	}
}

// TestPrecisionValidate rejects the malformed corners.
func TestPrecisionValidate(t *testing.T) {
	bad := []Precision{
		{TargetRelCI: 0, MaxReplications: 10},
		{TargetRelCI: -1, MaxReplications: 10},
		{TargetRelCI: math.Inf(1), MaxReplications: 10},
		{TargetRelCI: 0.01, MaxReplications: 0},
		{TargetRelCI: 0.01, MaxReplications: 1}, // no CI from one sample
		{TargetRelCI: 0.01, MaxReplications: 10, Confidence: 1},
		{TargetRelCI: 0.01, MaxReplications: 10, Confidence: -0.5},
		{TargetRelCI: 0.01, MaxReplications: 10, MinReplications: -1},
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, pr)
		}
	}
	if err := (Precision{TargetRelCI: 0.01, MaxReplications: 10}).Validate(); err != nil {
		t.Errorf("Validate rejected a well-formed rule: %v", err)
	}
}
