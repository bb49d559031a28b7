// Package queueing implements the survey's third model family: scheduling
// control of queueing systems.
//
// It provides a multiclass M/G/1 simulator with pluggable disciplines and
// the exact Pollaczek–Khinchine / Cobham formulas that validate it; the cµ
// rule (Cox–Smith 1961); Klimov's model with Markovian feedback and the
// adaptive-greedy index algorithm (Klimov 1974, in the polyhedral form of
// Bertsimas–Niño-Mora 1996); Kleinrock's conservation law and the M/G/1
// performance polytope; multiclass M/M/m with the fast-single-server bound
// (Glazebrook–Niño-Mora 2001); polling with switchover times (Levy–Sidi
// 1990); a multi-station network simulator exhibiting Lu–Kumar-style
// instability (Bramson 1994 context); and a single-station fluid model
// (Chen–Yao 1993).
//
// All replication loops (MG1.Replicate, ReplicateKlimov, and the M/M/m and
// polling experiment helpers) run on internal/engine with per-replication
// RNG substreams, so estimates are byte-identical at any parallelism for a
// given seed. The policy service exposes the cµ/Klimov orders as
// POST /v1/index (kind "mg1") and the simulators as POST /v1/simulate —
// which the sweep subsystem (internal/sweep) fans out over whole parameter
// grids; specs enter through internal/spec.MG1 (see docs/api.md).
package queueing

import (
	"fmt"
	"math"
	"sort"

	"stochsched/internal/dist"
)

// Class describes one customer class at a single-server station.
type Class struct {
	Name        string
	ArrivalRate float64           // Poisson arrival rate α_j
	Service     dist.Distribution // service-time law
	HoldCost    float64           // holding cost rate c_j per job per unit time
}

// MG1 is a multiclass M/G/1 system.
type MG1 struct {
	Classes []Class
}

// Validate checks rates, service laws, and stability (ρ < 1).
func (m *MG1) Validate() error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("queueing: no classes")
	}
	for i, c := range m.Classes {
		if c.ArrivalRate < 0 {
			return fmt.Errorf("queueing: class %d negative arrival rate", i)
		}
		if c.Service == nil || c.Service.Mean() <= 0 {
			return fmt.Errorf("queueing: class %d needs a positive-mean service law", i)
		}
		if c.HoldCost < 0 {
			return fmt.Errorf("queueing: class %d negative holding cost", i)
		}
	}
	if rho := m.Load(); rho >= 1 {
		return fmt.Errorf("queueing: total load ρ = %v ≥ 1 (unstable)", rho)
	}
	return nil
}

// Load returns the total offered load ρ = Σ α_j E[S_j].
func (m *MG1) Load() float64 {
	rho := 0.0
	for _, c := range m.Classes {
		rho += c.ArrivalRate * c.Service.Mean()
	}
	return rho
}

// CMuOrder returns class indices sorted by nonincreasing c_j·µ_j — the cµ
// rule's priority order (highest priority first).
func (m *MG1) CMuOrder() []int {
	o := make([]int, len(m.Classes))
	for i := range o {
		o[i] = i
	}
	sort.SliceStable(o, func(a, b int) bool {
		ca := m.Classes[o[a]]
		cb := m.Classes[o[b]]
		return ca.HoldCost/ca.Service.Mean() > cb.HoldCost/cb.Service.Mean()
	})
	return o
}

// secondMoment returns E[S²] = Var + Mean².
func secondMoment(d dist.Distribution) float64 {
	mean := d.Mean()
	return d.Var() + mean*mean
}

// W0 returns the mean residual work seen by a Poisson arrival,
// Σ_j α_j E[S_j²] / 2 — the numerator of every M/G/1 delay formula.
func (m *MG1) W0() float64 {
	w := 0.0
	for _, c := range m.Classes {
		w += c.ArrivalRate * secondMoment(c.Service) / 2
	}
	return w
}

// ExactFIFO returns the exact steady-state per-class mean queueing delay
// (excluding service) and mean number in system under FCFS: all classes see
// the Pollaczek–Khinchine delay Wq = W0/(1−ρ).
func (m *MG1) ExactFIFO() (wq []float64, l []float64) {
	rho := m.Load()
	w := m.W0() / (1 - rho)
	wq = make([]float64, len(m.Classes))
	l = make([]float64, len(m.Classes))
	for j, c := range m.Classes {
		wq[j] = w
		l[j] = c.ArrivalRate * (w + c.Service.Mean()) // Little's law
	}
	return wq, l
}

// ExactPriority returns the exact per-class mean queueing delay and number
// in system under a static nonpreemptive priority order (highest priority
// first) — Cobham's formula:
//
//	Wq_k = W0 / ((1 − σ_{k−1})(1 − σ_k)),   σ_k = Σ_{j: rank ≤ k} ρ_j.
func (m *MG1) ExactPriority(order []int) (wq []float64, l []float64, err error) {
	n := len(m.Classes)
	if len(order) != n {
		return nil, nil, fmt.Errorf("queueing: order length %d, want %d", len(order), n)
	}
	w0 := m.W0()
	wq = make([]float64, n)
	l = make([]float64, n)
	sigma := 0.0
	for _, j := range order {
		c := m.Classes[j]
		rhoJ := c.ArrivalRate * c.Service.Mean()
		prev := sigma
		sigma += rhoJ
		if sigma >= 1 {
			return nil, nil, fmt.Errorf("queueing: cumulative load %v ≥ 1 at class %d", sigma, j)
		}
		wq[j] = w0 / ((1 - prev) * (1 - sigma))
		l[j] = c.ArrivalRate * (wq[j] + c.Service.Mean())
	}
	return wq, l, nil
}

// ExactPreemptivePriority returns the exact steady-state per-class mean
// sojourn time (waiting plus service, including preemption outages) and
// mean number in system under preemptive-resume static priorities (highest
// first):
//
//	T_k = E[S_k]/(1 − σ_{k−1})  +  (Σ_{j: rank ≤ k} α_j E[S_j²]/2) / ((1 − σ_{k−1})(1 − σ_k)),
//
// with σ_k the cumulative load of the k highest-priority classes. Class k is
// completely invisible to lower classes and completely blind to higher
// ones. The cµ rule is optimal among preemptive policies for exponential
// services (Cox–Smith 1961).
func (m *MG1) ExactPreemptivePriority(order []int) (t []float64, l []float64, err error) {
	n := len(m.Classes)
	if len(order) != n {
		return nil, nil, fmt.Errorf("queueing: order length %d, want %d", len(order), n)
	}
	t = make([]float64, n)
	l = make([]float64, n)
	sigma := 0.0
	residual := 0.0 // Σ α_j E[S_j²]/2 over classes at or above current rank
	for _, j := range order {
		c := m.Classes[j]
		rhoJ := c.ArrivalRate * c.Service.Mean()
		prev := sigma
		sigma += rhoJ
		if sigma >= 1 {
			return nil, nil, fmt.Errorf("queueing: cumulative load %v ≥ 1 at class %d", sigma, j)
		}
		residual += c.ArrivalRate * secondMoment(c.Service) / 2
		t[j] = c.Service.Mean()/(1-prev) + residual/((1-prev)*(1-sigma))
		l[j] = c.ArrivalRate * t[j]
	}
	return t, l, nil
}

// HoldingCostRate returns Σ_j c_j · l_j for per-class mean numbers l.
func (m *MG1) HoldingCostRate(l []float64) float64 {
	total := 0.0
	for j, c := range m.Classes {
		total += c.HoldCost * l[j]
	}
	return total
}

// BestPriorityExhaustive evaluates every static priority order with
// Cobham's formula and returns a minimizer of the holding-cost rate with its
// value. The cµ rule must attain it (Cox–Smith 1961).
func (m *MG1) BestPriorityExhaustive() ([]int, float64, error) {
	n := len(m.Classes)
	if n > 8 {
		return nil, 0, fmt.Errorf("queueing: exhaustive search limited to 8 classes")
	}
	best := math.Inf(1)
	var bestOrder []int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int) error
	rec = func(k int) error {
		if k == n {
			_, l, err := m.ExactPriority(perm)
			if err != nil {
				return err
			}
			if v := m.HoldingCostRate(l); v < best {
				best = v
				bestOrder = append([]int(nil), perm...)
			}
			return nil
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if err := rec(k + 1); err != nil {
				return err
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, 0, err
	}
	return bestOrder, best, nil
}

// KleinrockConserved returns Σ_j ρ_j·Wq_j, the quantity Kleinrock's
// conservation law fixes at ρ·W0/(1−ρ) across all nonpreemptive
// work-conserving disciplines.
func (m *MG1) KleinrockConserved(wq []float64) float64 {
	total := 0.0
	for j, c := range m.Classes {
		total += c.ArrivalRate * c.Service.Mean() * wq[j]
	}
	return total
}

// KleinrockRHS returns ρ·W0/(1−ρ), the invariant value of the conservation
// law.
func (m *MG1) KleinrockRHS() float64 {
	rho := m.Load()
	return rho * m.W0() / (1 - rho)
}
