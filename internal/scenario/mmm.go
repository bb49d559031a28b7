package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/spec"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(mmmScenario{}) }

// The mmm wire shapes live in the public contract; the aliases keep this
// package's names stable for internal consumers.
type (
	// MMmSim parameterizes a multiclass M/M/m simulation: the system
	// spec, the discipline ("cmu" or "fifo"), and the horizon.
	MMmSim = api.MMmSim
	// MMmResult carries replication means for the M/M/m simulation.
	MMmResult = api.MMmResult
)

// mmmScenario simulates the multiclass M/M/m queue — m identical
// exponential servers shared under a static nonpreemptive discipline — and
// its Indexer capability computes the cµ priority order with multiserver
// Cobham delays built on the Erlang-C waiting probability, plus the
// fast-single-server (speed-m M/M/1) lower bound on the optimal cost.
type mmmScenario struct{}

func (mmmScenario) Kind() string { return "mmm" }

func (mmmScenario) CheckPayload(payload any) error {
	p := payload.(*MMmSim)
	return checkWindow(p.Burnin, p.Horizon)
}

func (mmmScenario) ReplicationWork(payload any) float64 {
	p := payload.(*MMmSim)
	return eventWork(p.Horizon, classRates(p.Spec.Classes), 0)
}

func (s mmmScenario) Validate(payload any) error {
	p := payload.(*MMmSim)
	if err := spec.ValidateMMm(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(p.Policy)
}

func (mmmScenario) Policies(payload any) []string { return []string{"cmu", "fifo"} }

func (mmmScenario) PolicyPath() string { return "mmm.policy" }

// checkPolicy is the single source of truth for which simulate policies an
// mmm spec supports; submit-time validation (Validate) and execution
// (Simulate) must never disagree.
func (mmmScenario) checkPolicy(policy string) error {
	if policy != "cmu" && policy != "fifo" {
		return fmt.Errorf("unknown mmm policy %q (want cmu or fifo)", policy)
	}
	return nil
}

func (s mmmScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	sim := payload.(*MMmSim)
	if err := s.checkPolicy(sim.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	m, err := spec.MMmModel(&sim.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	// All M/M/m randomness is exponential (inverse-CDF sampled), so
	// antithetic pairing is always admissible for this kind.
	// checkPolicy above admits exactly cmu and fifo here; a nil order is
	// Replicate's FIFO selector.
	var order []int
	if sim.Policy == "cmu" {
		order = m.CMuOrder()
	}
	n := len(m.Classes)
	rep := &queueing.ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return m.ReplicateInto(ctx, pool, order, sim.Horizon, sim.Burnin, nr, src, rep)
		},
		func() *stats.Running { return &rep.CostRate })
	if err != nil {
		return nil, 0, err
	}
	res := &MMmResult{
		Policy:       sim.Policy,
		Order:        order,
		Servers:      m.Servers,
		L:            make([]float64, n),
		CostRateMean: rep.CostRate.Mean(),
		CostRateCI95: rep.CostRate.CI95(),
	}
	for j := 0; j < n; j++ {
		res.L[j] = rep.L[j].Mean()
	}
	return res, used, nil
}

func (mmmScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string     `json:"spec_hash"`
		MMm      *MMmResult `json:"mmm"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding mmm simulate response: %v", err)
	}
	if b.MMm == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no mmm result")
	}
	if policy == "" {
		policy = b.MMm.Policy
	}
	return Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   "cost_rate",
		Mean:     b.MMm.CostRateMean,
		CI95:     b.MMm.CostRateCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: the cµ order with multiserver Cobham delays (Erlang-C
// analytic wait) and the fast-single-server lower bound.

func (mmmScenario) IndexFamily() string { return "priority" }

// IndexHash hashes the {"kind":"mmm","mmm":…} index envelope.
func (mmmScenario) IndexHash(payload any) string {
	return api.Hash(&api.IndexRequest{Kind: "mmm", MMm: payload.(*api.MMm)})
}

func (mmmScenario) ComputeIndex(payload any, hash string) (any, error) {
	m := payload.(*api.MMm)
	q, err := spec.MMmModel(m)
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
	pWait, err := q.ErlangC()
	if err != nil {
		return nil, err
	}
	bound, err := q.FastSingleServerBound()
	if err != nil {
		return nil, err
	}
	return &api.PriorityResponse{
		SpecHash:             hash,
		Rule:                 "cmu",
		Order:                order,
		Indices:              indices,
		Wq:                   wq,
		L:                    l,
		CostRate:             &cost,
		Servers:              q.Servers,
		ErlangC:              &pWait,
		FastSingleServerCost: &bound,
	}, nil
}
