// Package batch implements the survey's first model family: scheduling a
// fixed batch of stochastic jobs on one or more machines.
//
// It provides the classical index policies — Smith/Rothkopf WSEPT for the
// single machine, Sevcik's preemptive index, SEPT and LEPT for identical
// parallel machines — together with the exact baselines needed to verify
// their optimality on small instances: closed-form expected weighted
// flowtime for static orders, exhaustive order enumeration, and
// exponential-case Markov dynamic programming over job subsets.
//
// Simulation estimators (EstimateSingleMachine, EstimateParallel, the flow
// shop and in-tree makespans) replicate on internal/engine, so their
// estimates are byte-identical at any parallelism for a given seed. The
// policy service exposes the WSEPT/SEPT/LEPT orders as POST /v1/index
// with kind "batch"; specs enter through internal/spec.Batch (see
// docs/api.md).
package batch

import (
	"fmt"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// Job is one stochastic job in a batch instance.
type Job struct {
	ID     int
	Weight float64           // holding-cost rate w_i ≥ 0
	Dist   dist.Distribution // processing-time law
}

// Mean returns the expected processing time of the job.
func (j Job) Mean() float64 { return j.Dist.Mean() }

// SmithRatio returns w_i / E[p_i], Smith's priority index: larger is more
// urgent. (Smith 1956; shown optimal in expectation for general
// distributions by Rothkopf 1966.)
func (j Job) SmithRatio() float64 {
	m := j.Mean()
	if m <= 0 {
		return 0
	}
	return j.Weight / m
}

// Instance is a batch-scheduling problem instance.
type Instance struct {
	Jobs     []Job
	Machines int // number of identical machines (≥ 1)
}

// Validate checks the instance is well formed.
func (in *Instance) Validate() error {
	if len(in.Jobs) == 0 {
		return fmt.Errorf("batch: instance has no jobs")
	}
	if in.Machines < 1 {
		return fmt.Errorf("batch: instance needs at least one machine, got %d", in.Machines)
	}
	for i, j := range in.Jobs {
		if j.Weight < 0 {
			return fmt.Errorf("batch: job %d has negative weight", i)
		}
		if j.Dist == nil {
			return fmt.Errorf("batch: job %d has nil distribution", i)
		}
	}
	return nil
}

// SampleProcessingTimes draws one realization of all processing times.
func (in *Instance) SampleProcessingTimes(s *rng.Stream) []float64 {
	p := make([]float64, len(in.Jobs))
	for i, j := range in.Jobs {
		p[i] = j.Dist.Sample(s)
	}
	return p
}

// RandomInstance generates a random instance with n jobs on m machines for
// experiments: exponential processing times with rates in [0.3, 3) and
// weights in [0.5, 2).
func RandomInstance(n, m int, s *rng.Stream) *Instance {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:     i,
			Weight: 0.5 + 1.5*s.Float64(),
			Dist:   dist.Exponential{Rate: 0.3 + 2.7*s.Float64()},
		}
	}
	return &Instance{Jobs: jobs, Machines: m}
}

// Order is a processing order: a permutation of job indices.
type Order []int

// validOrder reports whether o is a permutation of [0, n).
func validOrder(o Order, n int) bool {
	if len(o) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range o {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Permutations calls fn with every permutation of [0, n) (Heap's algorithm).
// fn must not retain the slice. Intended for exhaustive baselines with small
// n; it panics for n > 10 to guard against accidental blowups.
func Permutations(n int, fn func(Order)) {
	if n > 10 {
		panic("batch: Permutations limited to n <= 10")
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(perm)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	rec(n)
}
