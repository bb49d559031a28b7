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

func init() { Register(pollingScenario{}) }

// The polling wire shapes live in the public contract; the aliases keep
// this package's names stable for internal consumers.
type (
	// PollingSim parameterizes a polling-system simulation: the spec, the
	// service regime as the policy, and the horizon.
	PollingSim = api.PollingSim
	// PollingResult carries replication means for the polling simulation.
	PollingResult = api.PollingResult
)

// pollingScenario simulates a cyclic polling system (one server walking
// over the queues with switchover times). The service regime is the
// policy — "exhaustive", "gated", or "limited" (1-limited) — so regimes
// are directly comparable in sweeps.
type pollingScenario struct{}

func (pollingScenario) Kind() string { return "polling" }

func (pollingScenario) CheckPayload(payload any) error {
	p := payload.(*PollingSim)
	return checkWindow(p.Burnin, p.Horizon)
}

func (pollingScenario) ReplicationWork(payload any) float64 {
	p := payload.(*PollingSim)
	sw, err := spec.DistLaw(&p.Spec.Switch)
	if err != nil || !(sw.Mean() > 0) {
		return 0
	}
	return eventWork(p.Horizon, classRates(p.Spec.Queues), 1/sw.Mean())
}

func (s pollingScenario) Validate(payload any) error {
	p := payload.(*PollingSim)
	if err := spec.ValidatePolling(&p.Spec); err != nil {
		return err
	}
	_, err := pollingRegime(p.Policy)
	return err
}

func (pollingScenario) Policies(any) []string { return []string{"exhaustive", "gated", "limited"} }

func (pollingScenario) PolicyPath() string { return "polling.policy" }

// pollingRegime is the single source of truth mapping the policy knob to
// the simulator's service regime.
func pollingRegime(policy string) (queueing.PollingRegime, error) {
	switch policy {
	case "exhaustive":
		return queueing.Exhaustive, nil
	case "gated":
		return queueing.Gated, nil
	case "limited":
		return queueing.Limited1, nil
	}
	return 0, fmt.Errorf("unknown polling policy %q (want exhaustive, gated, or limited)", policy)
}

func (s pollingScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*PollingSim)
	regime, err := pollingRegime(p.Policy)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	model, err := spec.PollingModel(&p.Spec, regime)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j, q := range model.Queues {
			if !dist.Invertible(q.Service) {
				return nil, 0, errAntithetic("polling", fmt.Sprintf("queue %d service law %v is not inverse-CDF sampled", j, q.Service))
			}
		}
		if !dist.Invertible(model.Switch) {
			return nil, 0, errAntithetic("polling", fmt.Sprintf("switchover law %v is not inverse-CDF sampled", model.Switch))
		}
	}
	n := len(model.Queues)
	rep := &queueing.ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return model.ReplicateInto(ctx, pool, p.Horizon, p.Burnin, nr, src, rep)
		},
		func() *stats.Running { return &rep.CostRate })
	if err != nil {
		return nil, 0, err
	}
	res := &PollingResult{
		Policy:       p.Policy,
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

func (pollingScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string         `json:"spec_hash"`
		Polling  *PollingResult `json:"polling"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding polling simulate response: %v", err)
	}
	if b.Polling == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no polling result")
	}
	if policy == "" {
		policy = b.Polling.Policy
	}
	return Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   "cost_rate",
		Mean:     b.Polling.CostRateMean,
		CI95:     b.Polling.CostRateCI95,
	}, nil
}
