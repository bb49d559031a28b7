package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/bandit"
	"stochsched/internal/engine"
	"stochsched/internal/spec"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(banditScenario{}) }

// The bandit wire shapes live in the public contract; the aliases keep
// this package's names stable for internal consumers.
type (
	// BanditSim parameterizes a bandit simulation: the system spec, the
	// component start states, and the selection policy ("gittins", the
	// default, or "greedy" — the one-step myopic baseline).
	BanditSim = api.BanditSim
	// BanditResult carries the discounted-reward estimate under the
	// selected policy.
	BanditResult = api.BanditResult
)

// banditScenario evaluates an index policy on a multi-project discounted
// bandit; its Indexer capability computes Gittins indices of a single
// project.
type banditScenario struct{}

func (banditScenario) Kind() string { return "bandit" }

// banditPolicy defaults the payload's policy knob: an absent policy means
// "gittins", keeping pre-registry request bodies (and their hashes) valid.
func banditPolicy(p *BanditSim) string {
	if p.Policy == "" {
		return "gittins"
	}
	return p.Policy
}

func (banditScenario) CheckPayload(payload any) error {
	p := payload.(*BanditSim)
	if len(p.Start) != len(p.Spec.Projects) {
		return fmt.Errorf("start has %d states for %d projects", len(p.Start), len(p.Spec.Projects))
	}
	for i, st := range p.Start {
		if st < 0 || st >= len(p.Spec.Projects[i].Rewards) {
			return fmt.Errorf("start state %d of project %d out of range", st, i)
		}
	}
	return nil
}

func (banditScenario) ReplicationWork(payload any) float64 {
	// Episode length scales with the discounted horizon 1/(1−β). An
	// out-of-range discount is reported by Validate, not the budget.
	if beta := payload.(*BanditSim).Spec.Beta; beta > 0 && beta < 1 {
		return 1 / (1 - beta)
	}
	return 0
}

func (s banditScenario) Validate(payload any) error {
	p := payload.(*BanditSim)
	if err := spec.ValidateBanditSystem(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(banditPolicy(p))
}

func (banditScenario) Policies(any) []string { return []string{"gittins", "greedy"} }

func (banditScenario) PolicyPath() string { return "bandit.policy" }

func (banditScenario) checkPolicy(policy string) error {
	if policy != "gittins" && policy != "greedy" {
		return fmt.Errorf("unknown bandit policy %q (want gittins or greedy)", policy)
	}
	return nil
}

func (s banditScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*BanditSim)
	policy := banditPolicy(p)
	if err := s.checkPolicy(policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		return nil, 0, errAntithetic("bandit", "state transitions are categorical draws")
	}
	b, err := spec.BanditModel(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	var pol bandit.Policy
	if policy == "greedy" {
		pol = bandit.GreedyPolicy(b)
	} else {
		indices := make([][]float64, len(b.Projects))
		for i, pr := range b.Projects {
			if indices[i], err = bandit.GittinsRestart(pr, b.Beta); err != nil {
				return nil, 0, err
			}
		}
		pol = bandit.IndexPolicy(indices)
	}
	var est stats.Running
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return bandit.EstimateDiscountedInto(ctx, pool, b, pol, p.Start, nr, src, &est)
		},
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &BanditResult{Policy: policy, RewardMean: est.Mean(), RewardCI95: est.CI95()}, used, nil
}

func (banditScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string        `json:"spec_hash"`
		Bandit   *BanditResult `json:"bandit"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding bandit simulate response: %v", err)
	}
	if b.Bandit == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no bandit result")
	}
	if policy == "" {
		policy = b.Bandit.Policy
	}
	return Outcome{
		Policy:         policy,
		SpecHash:       b.SpecHash,
		Metric:         "reward",
		HigherIsBetter: true,
		Mean:           b.Bandit.RewardMean,
		CI95:           b.Bandit.RewardCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: Gittins indices of one project.

func (banditScenario) IndexFamily() string { return "gittins" }

// IndexHash hashes the bare project spec — exactly the body of the retired
// /v1/gittins route, so goldens and cache keys are preserved.
func (banditScenario) IndexHash(payload any) string { return api.Hash(payload.(*api.Bandit)) }

func (banditScenario) ComputeIndex(payload any, hash string) (any, error) {
	b := payload.(*api.Bandit)
	p, err := spec.BanditProject(b)
	if err != nil {
		return nil, BadSpec{err}
	}
	restart, err := bandit.GittinsRestart(p, b.Beta)
	if err != nil {
		return nil, err
	}
	largest, err := bandit.GittinsLargestIndex(p, b.Beta)
	if err != nil {
		return nil, err
	}
	return &api.GittinsResponse{
		SpecHash: hash,
		States:   p.N(),
		Beta:     b.Beta,
		Restart:  restart,
		Largest:  largest,
	}, nil
}
