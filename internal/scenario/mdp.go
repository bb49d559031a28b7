package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/markov"
	"stochsched/internal/spec"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(mdpScenario{}) }

// The mdp wire shapes live in the public contract; the aliases keep this
// package's names stable for internal consumers.
type (
	// MDPSim parameterizes an average-reward MDP simulation: the spec,
	// the policy, the start state, and the epoch horizon.
	MDPSim = api.MDPSim
	// MDPResult carries the average-reward-per-epoch estimate.
	MDPResult = api.MDPResult
)

// mdpScenario simulates finite average-reward MDPs under the RVI-optimal,
// myopic, or random policy; its Indexer capability solves the model
// analytically — relative value iteration cross-checked by the
// occupation-measure LP — so simulated vs optimal gain is comparable per
// spec.
type mdpScenario struct{}

func (mdpScenario) Kind() string { return "mdp" }

const (
	mdpSolveTol     = 1e-9
	mdpSolveMaxIter = 100000
)

func (mdpScenario) CheckPayload(payload any) error {
	p := payload.(*MDPSim)
	if err := checkWindow(p.Burnin, p.Horizon); err != nil {
		return err
	}
	if p.Start < 0 {
		return fmt.Errorf("need a nonnegative start state, got %d", p.Start)
	}
	return nil
}

func (mdpScenario) ReplicationWork(payload any) float64 {
	return float64(payload.(*MDPSim).Horizon)
}

func (s mdpScenario) Validate(payload any) error {
	p := payload.(*MDPSim)
	m, err := spec.MDPModel(&p.Spec)
	if err != nil {
		return err
	}
	if p.Start >= m.N() {
		return fmt.Errorf("start state %d outside [0,%d)", p.Start, m.N())
	}
	return s.checkPolicy(p.Policy)
}

func (mdpScenario) Policies(any) []string { return []string{"optimal", "myopic", "random"} }

func (mdpScenario) PolicyPath() string { return "mdp.policy" }

func (mdpScenario) checkPolicy(policy string) error {
	switch policy {
	case "optimal", "myopic", "random":
		return nil
	}
	return fmt.Errorf("unknown mdp policy %q (want optimal, myopic, or random)", policy)
}

func (s mdpScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*MDPSim)
	if err := s.checkPolicy(p.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		return nil, 0, errAntithetic("mdp", "state transitions are categorical draws")
	}
	m, err := spec.MDPModel(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if p.Start >= m.N() {
		return nil, 0, BadSpec{fmt.Errorf("start state %d outside [0,%d)", p.Start, m.N())}
	}
	var choose markov.ActionChooser
	var actions []int
	switch p.Policy {
	case "optimal":
		_, _, pol, err := m.Solve(mdpSolveTol, mdpSolveMaxIter)
		if err != nil {
			return nil, 0, BadSpec{err}
		}
		actions, choose = pol, markov.StationaryChooser(pol)
	case "myopic":
		actions = m.MyopicPolicy()
		choose = markov.StationaryChooser(actions)
	case "random":
		choose = markov.UniformChooser(m.A())
	}
	var est stats.Running
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return m.ReplicateInto(ctx, pool, choose, p.Start, p.Horizon, p.Burnin, nr, src, &est)
		},
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &MDPResult{
		Policy:     p.Policy,
		Actions:    actions,
		RewardMean: est.Mean(),
		RewardCI95: est.CI95(),
	}, used, nil
}

func (mdpScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string     `json:"spec_hash"`
		MDP      *MDPResult `json:"mdp"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding mdp simulate response: %v", err)
	}
	if b.MDP == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no mdp result")
	}
	if policy == "" {
		policy = b.MDP.Policy
	}
	return Outcome{
		Policy:         policy,
		SpecHash:       b.SpecHash,
		Metric:         "reward",
		HigherIsBetter: true,
		Mean:           b.MDP.RewardMean,
		CI95:           b.MDP.RewardCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: the optimal average reward by relative value
// iteration, cross-checked by the occupation-measure LP.

func (mdpScenario) IndexFamily() string { return "mdp" }

func (mdpScenario) IndexHash(payload any) string {
	return api.Hash(&api.IndexRequest{Kind: "mdp", MDP: payload.(*api.MDP)})
}

func (mdpScenario) ComputeIndex(payload any, hash string) (any, error) {
	m, err := spec.MDPModel(payload.(*api.MDP))
	if err != nil {
		return nil, BadSpec{err}
	}
	// The model is already validated, so a solver failure is the input's
	// doing: relative value iteration does not converge on a multichain
	// MDP (one whose optimal gain depends on the start state).
	gain, bias, pol, err := m.Solve(mdpSolveTol, mdpSolveMaxIter)
	if err != nil {
		return nil, BadSpec{err}
	}
	lpGain, err := m.AverageRewardLP()
	if err != nil {
		return nil, err
	}
	return &api.MDPResponse{
		SpecHash: hash,
		States:   m.N(),
		Actions:  m.A(),
		Gain:     gain,
		LPGain:   lpGain,
		Bias:     bias,
		Policy:   pol,
	}, nil
}
