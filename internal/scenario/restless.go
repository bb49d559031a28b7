package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/restless"
	"stochsched/internal/spec"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(restlessScenario{}) }

// The restless wire shapes live in the public contract; the aliases keep
// this package's names stable for internal consumers.
type (
	// RestlessSim parameterizes a restless-fleet simulation: N iid copies
	// of one two-action restless project, M of which are activated every
	// epoch by a static state-priority rule — "whittle" (scores = Whittle
	// indices), "myopic" (scores = one-step activation advantage R₁ − R₀),
	// or "random" (the unprioritized baseline). Average reward per epoch
	// is measured over [burnin, horizon).
	RestlessSim = api.RestlessSim
	// RestlessResult carries the average-reward-per-epoch estimate of the
	// fleet under the selected activation rule.
	RestlessResult = api.RestlessResult
)

// restlessScenario estimates fleet-scale activation heuristics
// (Whittle vs myopic vs random) via internal/restless; its Indexer
// capability computes Whittle indices of the single project.
type restlessScenario struct{}

func (restlessScenario) Kind() string { return "restless" }

func (restlessScenario) CheckPayload(payload any) error {
	p := payload.(*RestlessSim)
	if p.N < 1 || p.M < 0 || p.M > p.N {
		return fmt.Errorf("need 1 <= n and 0 <= m <= n, got n=%d m=%d", p.N, p.M)
	}
	return checkWindow(p.Burnin, p.Horizon)
}

func (restlessScenario) ReplicationWork(payload any) float64 {
	// Every epoch touches all N projects.
	p := payload.(*RestlessSim)
	return float64(p.Horizon) * float64(p.N)
}

func (s restlessScenario) Validate(payload any) error {
	p := payload.(*RestlessSim)
	if err := spec.ValidateRestless(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(p.Policy)
}

func (restlessScenario) Policies(any) []string { return []string{"whittle", "myopic", "random"} }

func (restlessScenario) PolicyPath() string { return "restless.policy" }

func (restlessScenario) checkPolicy(policy string) error {
	switch policy {
	case "whittle", "myopic", "random":
		return nil
	}
	return fmt.Errorf("unknown restless policy %q (want whittle, myopic, or random)", policy)
}

func (s restlessScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*RestlessSim)
	if err := s.checkPolicy(p.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		return nil, 0, errAntithetic("restless", "project transitions are categorical draws")
	}
	proj, err := spec.RestlessProject(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	fleet := &restless.Fleet{Type: proj, N: p.N, M: p.M}
	var est stats.Running
	var round func(ctx context.Context, nr int) error
	src := opts.stream(seed)
	switch p.Policy {
	case "random":
		round = func(ctx context.Context, nr int) error {
			return fleet.EstimateRandomPolicyInto(ctx, pool, p.Horizon, p.Burnin, nr, src, &est)
		}
	default:
		score := restless.MyopicScore(proj)
		if p.Policy == "whittle" {
			if score, err = restless.WhittleIndex(proj, p.Spec.Beta); err != nil {
				return nil, 0, err
			}
		}
		round = func(ctx context.Context, nr int) error {
			return fleet.EstimateStaticPriorityInto(ctx, pool, score, p.Horizon, p.Burnin, nr, src, &est)
		}
	}
	used, err := runReplications(ctx, opts, reps, round,
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &RestlessResult{Policy: p.Policy, RewardMean: est.Mean(), RewardCI95: est.CI95()}, used, nil
}

func (restlessScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string          `json:"spec_hash"`
		Restless *RestlessResult `json:"restless"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding restless simulate response: %v", err)
	}
	if b.Restless == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no restless result")
	}
	if policy == "" {
		policy = b.Restless.Policy
	}
	return Outcome{
		Policy:         policy,
		SpecHash:       b.SpecHash,
		Metric:         "reward",
		HigherIsBetter: true,
		Mean:           b.Restless.RewardMean,
		CI95:           b.Restless.RewardCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: Whittle indices (+ optional indexability check).

func (restlessScenario) IndexFamily() string { return "whittle" }

// IndexHash hashes the flattened project-plus-knob struct — exactly the
// body of the retired /v1/whittle route, so goldens and cache keys are
// preserved.
func (restlessScenario) IndexHash(payload any) string {
	return api.Hash(payload.(*api.WhittleRequest))
}

func (restlessScenario) ComputeIndex(payload any, hash string) (any, error) {
	req := payload.(*api.WhittleRequest)
	p, err := spec.RestlessProject(&req.Restless)
	if err != nil {
		return nil, BadSpec{err}
	}
	idx, err := restless.WhittleIndex(p, req.Beta)
	if err != nil {
		return nil, err
	}
	resp := &api.WhittleResponse{
		SpecHash: hash,
		States:   p.N(),
		Beta:     req.Beta,
		Whittle:  idx,
	}
	if req.CheckIndexability {
		lo, hi := restless.SubsidyBracket(p, req.Beta)
		rep, err := restless.CheckIndexability(p, req.Beta, lo, hi, 50)
		if err != nil {
			return nil, err
		}
		resp.Indexable = &rep.Indexable
	}
	if req.N != 0 || req.M != 0 {
		if req.N < 1 || req.M < 0 || req.M > req.N {
			return nil, BadSpec{fmt.Errorf("need 1 <= n and 0 <= m <= n, got n=%d m=%d", req.N, req.M)}
		}
		sol, err := restless.SolveRelaxation(p, float64(req.M)/float64(req.N))
		if err != nil {
			return nil, err
		}
		bound := float64(req.N) * sol.ValuePerProject
		resp.LPBound = &bound
		resp.PDIndex = sol.PDIndex
	}
	return resp, nil
}
