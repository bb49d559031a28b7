// Package restless implements the survey's restless-bandit extension
// (Whittle 1988): projects evolve whether or not they are engaged, and
// exactly m of N must be engaged at each epoch.
//
// The package provides the Whittle index (computed from the subsidy
// formulation by bisection on the activation advantage), an indexability
// verifier, the per-project LP relaxation whose value upper-bounds every
// feasible policy (the Whittle relaxation, solved with the in-repo simplex),
// a first-order primal–dual index heuristic in the spirit of
// Bertsimas–Niño-Mora (2000), and a fleet simulator used for the
// Weber–Weiss (1990) asymptotic-optimality experiment.
//
// Fleet replications fan out over internal/engine, so estimates are
// byte-identical at any parallelism for a given seed. The policy service
// exposes WhittleIndex and CheckIndexability as POST /v1/index with kind
// "restless" (see docs/api.md); specs enter through internal/spec.Restless.
package restless

import (
	"fmt"

	"stochsched/internal/linalg"
	"stochsched/internal/markov"
	"stochsched/internal/rng"
)

// Action indexes the passive (0) and active (1) dynamics of a project.
const (
	Passive = 0
	Active  = 1
)

// Project is one restless arm: state-dependent rewards and transitions under
// each of the two actions.
type Project struct {
	P [2]*linalg.Matrix // P[Passive], P[Active]
	R [2][]float64      // R[Passive], R[Active]
}

// N returns the number of states.
func (p *Project) N() int { return p.P[Passive].Rows }

// Validate checks both transition matrices and reward vectors.
func (p *Project) Validate() error {
	n := p.N()
	for a := 0; a < 2; a++ {
		if _, err := markov.NewChain(p.P[a]); err != nil {
			return fmt.Errorf("restless: action %d: %w", a, err)
		}
		if p.P[a].Rows != n {
			return fmt.Errorf("restless: action matrices disagree on state count")
		}
		if len(p.R[a]) != n {
			return fmt.Errorf("restless: action %d reward length %d, want %d", a, len(p.R[a]), n)
		}
	}
	return nil
}

// MachineRepair builds the canonical indexable restless project: a machine
// deteriorating through states 0 (good) .. n−1 (worst). Passive: earns
// revenue[i] and deteriorates one level with probability decay. Active
// (repair): pays repairCost, earns nothing, and returns to state 0.
func MachineRepair(n int, decay, repairCost float64, revenue []float64) (*Project, error) {
	if n < 2 || len(revenue) != n {
		return nil, fmt.Errorf("restless: MachineRepair needs n >= 2 and matching revenue, got n=%d |revenue|=%d", n, len(revenue))
	}
	if decay < 0 || decay > 1 {
		return nil, fmt.Errorf("restless: decay %v outside [0,1]", decay)
	}
	p0 := linalg.NewMatrix(n, n)
	for i := 0; i < n-1; i++ {
		p0.Set(i, i+1, decay)
		p0.Set(i, i, 1-decay)
	}
	p0.Set(n-1, n-1, 1)
	p1 := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		p1.Set(i, 0, 1)
	}
	r0 := append([]float64(nil), revenue...)
	r1 := make([]float64, n)
	for i := range r1 {
		r1[i] = -repairCost
	}
	pr := &Project{P: [2]*linalg.Matrix{p0, p1}, R: [2][]float64{r0, r1}}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	return pr, nil
}

// RandomProject generates a random restless project with n states: random
// stochastic rows under both actions, active rewards in [0,1), passive
// rewards in [0, 0.5).
func RandomProject(n int, s *rng.Stream) *Project {
	mk := func() *linalg.Matrix {
		m := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			sum := 0.0
			row := make([]float64, n)
			for j := range row {
				row[j] = s.Float64Open()
				sum += row[j]
			}
			for j := range row {
				m.Set(i, j, row[j]/sum)
			}
		}
		return m
	}
	r0 := make([]float64, n)
	r1 := make([]float64, n)
	for i := 0; i < n; i++ {
		r0[i] = 0.5 * s.Float64()
		r1[i] = s.Float64()
	}
	return &Project{P: [2]*linalg.Matrix{mk(), mk()}, R: [2][]float64{r0, r1}}
}
