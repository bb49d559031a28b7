package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/spec"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(mg1Scenario{}) }

// The mg1 wire shapes live in the public contract; the aliases keep this
// package's names stable for internal consumers.
type (
	// MG1Sim parameterizes an M/G/1 simulation: the system spec, the
	// discipline ("cmu", "fifo", or "klimov" for feedback systems), and
	// the horizon.
	MG1Sim = api.MG1Sim
	// MG1Result carries replication means for the queueing simulation.
	// For feedback (Klimov) systems only the cost rate is estimated.
	MG1Result = api.MG1Result
)

// mg1Scenario simulates the multiclass M/G/1 queue (and, with feedback,
// Klimov's network) under a discipline; its Indexer capability computes
// the cµ (or Klimov) priority order with exact Cobham delays.
type mg1Scenario struct{}

func (mg1Scenario) Kind() string { return "mg1" }

func (mg1Scenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p MG1Sim
	if err := decodeStrictPayload(raw, &p); err != nil {
		return nil, err
	}
	if p.Burnin < 0 || p.Horizon <= p.Burnin {
		return nil, fmt.Errorf("need 0 <= burnin < horizon, got burnin=%v horizon=%v", p.Burnin, p.Horizon)
	}
	return &p, nil
}

func (mg1Scenario) ReplicationWork(payload any) float64 {
	p := payload.(*MG1Sim)
	if !p.Spec.HasFeedback() {
		return eventWork(p.Horizon, classRates(p.Spec.Classes), 0)
	}
	k, err := spec.KlimovModel(&p.Spec)
	if err != nil {
		return 0
	}
	lam, err := k.EffectiveArrivalRates()
	if err != nil {
		return 0
	}
	return eventWork(p.Horizon, lam, 0)
}

func (s mg1Scenario) Validate(payload any) error {
	p := payload.(*MG1Sim)
	if err := spec.ValidateMG1(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(&p.Spec, p.Policy)
}

func (mg1Scenario) Policies(payload any) []string {
	if payload.(*MG1Sim).Spec.HasFeedback() {
		return []string{"klimov"}
	}
	return []string{"cmu", "fifo"}
}

func (mg1Scenario) PolicyPath() string { return "mg1.policy" }

// checkPolicy is the single source of truth for which simulate policies an
// mg1 spec supports; submit-time validation (Validate) and execution
// (Simulate) must never disagree.
func (mg1Scenario) checkPolicy(m *spec.MG1, policy string) error {
	if m.HasFeedback() {
		if policy != "klimov" {
			return fmt.Errorf("feedback systems support policy \"klimov\", got %q", policy)
		}
		return nil
	}
	if policy != "cmu" && policy != "fifo" {
		return fmt.Errorf("unknown mg1 policy %q (want cmu or fifo)", policy)
	}
	return nil
}

func (s mg1Scenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	sim := payload.(*MG1Sim)
	if err := s.checkPolicy(&sim.Spec, sim.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	if sim.Spec.HasFeedback() {
		if opts.Antithetic {
			return nil, 0, errAntithetic("mg1", "feedback routing draws are categorical")
		}
		k, err := spec.KlimovModel(&sim.Spec)
		if err != nil {
			return nil, 0, BadSpec{err}
		}
		_, order, err := k.KlimovIndices()
		if err != nil {
			return nil, 0, err
		}
		var est stats.Running
		src := opts.stream(seed)
		used, err := runReplications(ctx, opts, reps,
			func(ctx context.Context, n int) error {
				return k.ReplicateKlimovInto(ctx, pool, order, sim.Horizon, sim.Burnin, n, src, &est)
			},
			func() *stats.Running { return &est })
		if err != nil {
			return nil, 0, err
		}
		return &MG1Result{
			Policy:       "klimov",
			Order:        order,
			CostRateMean: est.Mean(),
			CostRateCI95: est.CI95(),
		}, used, nil
	}

	m, err := spec.MG1Model(&sim.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j, c := range m.Classes {
			if !dist.Invertible(c.Service) {
				return nil, 0, errAntithetic("mg1", fmt.Sprintf("class %d service law %v is not inverse-CDF sampled", j, c.Service))
			}
		}
	}
	// checkPolicy above admits exactly cmu and fifo here.
	var d queueing.Discipline
	var order []int
	if sim.Policy == "cmu" {
		order = m.CMuOrder()
		d = queueing.StaticPriority{Order: order}
	} else {
		d = queueing.FIFO{}
	}
	n := len(m.Classes)
	rep := &queueing.ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return m.ReplicateInto(ctx, pool, d, sim.Horizon, sim.Burnin, nr, src, rep)
		},
		func() *stats.Running { return &rep.CostRate })
	if err != nil {
		return nil, 0, err
	}
	res := &MG1Result{
		Policy:       sim.Policy,
		Order:        order,
		L:            make([]float64, n),
		Wq:           make([]float64, n),
		CostRateMean: rep.CostRate.Mean(),
		CostRateCI95: rep.CostRate.CI95(),
	}
	for j := 0; j < n; j++ {
		res.L[j] = rep.L[j].Mean()
		res.Wq[j] = rep.Wq[j].Mean()
	}
	return res, used, nil
}

func (mg1Scenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string     `json:"spec_hash"`
		MG1      *MG1Result `json:"mg1"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding mg1 simulate response: %v", err)
	}
	if b.MG1 == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no mg1 result")
	}
	if policy == "" {
		policy = b.MG1.Policy
	}
	return Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   "cost_rate",
		Mean:     b.MG1.CostRateMean,
		CI95:     b.MG1.CostRateCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: the cµ order with exact Cobham delays (or Klimov's
// indices for feedback systems).

func (mg1Scenario) IndexFamily() string { return "priority" }

func (mg1Scenario) ParseIndexPayload(raw json.RawMessage) (any, error) {
	var m api.MG1
	if err := decodeStrictPayload(raw, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// IndexHash hashes the {"kind":"mg1","mg1":…} priority envelope — exactly
// the body of the retired /v1/priority route, so goldens and cache keys
// are preserved.
func (mg1Scenario) IndexHash(payload any) string {
	return api.Hash(&api.PriorityRequest{Kind: "mg1", MG1: payload.(*api.MG1)})
}

func (s mg1Scenario) ComputeIndex(payload any, hash string) (any, error) {
	m := payload.(*api.MG1)
	if m.HasFeedback() {
		k, err := spec.KlimovModel(m)
		if err != nil {
			return nil, BadSpec{err}
		}
		indices, order, err := k.KlimovIndices()
		if err != nil {
			return nil, err
		}
		return &api.PriorityResponse{SpecHash: hash, Rule: "klimov", Order: order, Indices: indices}, nil
	}
	q, err := spec.MG1Model(m)
	if err != nil {
		return nil, BadSpec{err}
	}
	order := q.CMuOrder()
	indices := make([]float64, len(q.Classes))
	for i, c := range q.Classes {
		indices[i] = c.HoldCost / c.Service.Mean()
	}
	wq, l, err := q.ExactPriority(order)
	if err != nil {
		return nil, err
	}
	cost := q.HoldingCostRate(l)
	resp := &api.PriorityResponse{
		SpecHash: hash,
		Rule:     "cmu",
		Order:    order,
		Indices:  indices,
		Wq:       wq,
		L:        l,
		CostRate: &cost,
	}
	// Klimov fluid-limit drain order, seeded with the exact steady-state
	// queue lengths as the fluid initial condition (exhaustive over n!
	// orders — small class counts only).
	if len(q.Classes) <= 8 {
		fluidOrder, fluidCost, ferr := queueing.BestFluidOrder(q.Classes, l)
		if ferr == nil {
			resp.FluidOrder = fluidOrder
			resp.FluidDrainCost = &fluidCost
		}
	}
	return resp, nil
}
