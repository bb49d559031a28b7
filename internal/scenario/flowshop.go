package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/batch"
	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/spec"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(flowshopScenario{}) }

// The flowshop wire shapes live in the public contract; the aliases keep
// this package's names stable for internal consumers.
type (
	// FlowShopSim parameterizes a batch-shop simulation; the policy set
	// depends on the spec variant.
	FlowShopSim = api.FlowShopSim
	// FlowShopResult carries the replication estimate of the variant's
	// objective.
	FlowShopResult = api.FlowShopResult
)

// flowshopScenario simulates the batch-shop models under one kind, with
// the variant selected by the spec: permutation flow shops (optionally
// bufferless/blocking) under Talwar/SEPT/LEPT sequences, in-tree
// precedence on identical machines under HLF/LLF/random selectors, and
// Sevcik's preemptive discrete-law single machine vs the nonpreemptive
// WSEPT baseline.
type flowshopScenario struct{}

func (flowshopScenario) Kind() string { return "flowshop" }

func (flowshopScenario) CheckPayload(payload any) error {
	p := payload.(*FlowShopSim)
	if p.Spec.Variant() == "" {
		return fmt.Errorf("flowshop spec needs exactly one of jobs, tree, sevcik")
	}
	return nil
}

func (flowshopScenario) ReplicationWork(payload any) float64 {
	p := payload.(*FlowShopSim)
	switch p.Spec.Variant() {
	case "flowshop":
		return float64(len(p.Spec.Jobs) * len(p.Spec.Jobs[0].Stages))
	case "tree":
		return float64(len(p.Spec.Tree.Parent))
	default: // sevcik
		return float64(len(p.Spec.Sevcik))
	}
}

func (s flowshopScenario) Validate(payload any) error {
	p := payload.(*FlowShopSim)
	if err := spec.ValidateFlowShop(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(p)
}

// Policies is variant-dependent: "talwar" is listed only when it applies
// (two stages, all exponential), so sweeps never enumerate a policy the
// spec cannot run.
func (flowshopScenario) Policies(payload any) []string {
	p := payload.(*FlowShopSim)
	switch p.Spec.Variant() {
	case "flowshop":
		if talwarApplies(&p.Spec) {
			return []string{"talwar", "sept", "lept"}
		}
		return []string{"sept", "lept"}
	case "tree":
		return []string{"hlf", "llf", "random"}
	case "sevcik":
		return []string{"sevcik", "wsept"}
	}
	return nil
}

func (flowshopScenario) PolicyPath() string { return "flowshop.policy" }

// talwarApplies reports whether Talwar's rule is defined for the flow-shop
// variant: exactly two stages per job, every stage exponential (checked on
// the wire shape — the "exp" dist kind or the service-mean-free Dist form).
func talwarApplies(f *api.FlowShop) bool {
	for i := range f.Jobs {
		if len(f.Jobs[i].Stages) != 2 {
			return false
		}
		for k := range f.Jobs[i].Stages {
			if f.Jobs[i].Stages[k].Kind != "exp" {
				return false
			}
		}
	}
	return len(f.Jobs) > 0
}

func (s flowshopScenario) checkPolicy(p *FlowShopSim) error {
	for _, pol := range s.Policies(p) {
		if pol == p.Policy {
			return nil
		}
	}
	return fmt.Errorf("unknown flowshop policy %q for the %s variant (want one of %v)",
		p.Policy, p.Spec.Variant(), s.Policies(p))
}

func (s flowshopScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*FlowShopSim)
	if err := s.checkPolicy(p); err != nil {
		return nil, 0, BadSpec{err}
	}
	switch p.Spec.Variant() {
	case "flowshop":
		return s.simulateFlowShop(ctx, pool, p, seed, reps, opts)
	case "tree":
		return s.simulateTree(ctx, pool, p, seed, reps, opts)
	default:
		return s.simulateSevcik(ctx, pool, p, seed, reps, opts)
	}
}

func (flowshopScenario) simulateFlowShop(ctx context.Context, pool *engine.Pool, p *FlowShopSim, seed uint64, reps int, opts SimOpts) (any, int, error) {
	jobs, err := spec.FlowShopJobs(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j := range jobs {
			for k, d := range jobs[j].Stages {
				if !dist.Invertible(d) {
					return nil, 0, errAntithetic("flowshop", fmt.Sprintf("job %d stage %d law %v is not inverse-CDF sampled", j, k, d))
				}
			}
		}
	}
	var order batch.Order
	switch p.Policy {
	case "talwar":
		order = batch.TalwarOrder(jobs)
	case "sept":
		order = batch.FlowShopSEPT(jobs)
	case "lept":
		order = batch.FlowShopLEPT(jobs)
	}
	var est stats.Running
	src := opts.stream(seed)
	round := func(ctx context.Context, nr int) error {
		if p.Spec.Blocking {
			return batch.EstimateFlowShopBlockingInto(ctx, pool, jobs, order, nr, src, &est)
		}
		return batch.EstimateFlowShopInto(ctx, pool, jobs, order, nr, src, &est)
	}
	used, err := runReplications(ctx, opts, reps, round,
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &FlowShopResult{
		Policy:  p.Policy,
		Variant: "flowshop",
		Metric:  "makespan",
		Order:   order,
		Mean:    est.Mean(),
		CI95:    est.CI95(),
	}, used, nil
}

func (flowshopScenario) simulateTree(ctx context.Context, pool *engine.Pool, p *FlowShopSim, seed uint64, reps int, opts SimOpts) (any, int, error) {
	if opts.Antithetic {
		return nil, 0, errAntithetic("flowshop", "the tree variant's finisher selection is a categorical draw")
	}
	tree, machines, err := spec.TreeModel(p.Spec.Tree)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	var sel batch.TreeSelector
	switch p.Policy {
	case "hlf":
		sel = batch.HLF
	case "llf":
		sel = batch.LLF
	case "random":
		sel = batch.RandomSelector
	}
	var est stats.Running
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return batch.EstimateTreeMakespanInto(ctx, pool, tree, machines, p.Spec.Tree.Rate, sel, nr, src, &est)
		},
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &FlowShopResult{
		Policy:  p.Policy,
		Variant: "tree",
		Metric:  "makespan",
		Mean:    est.Mean(),
		CI95:    est.CI95(),
	}, used, nil
}

func (flowshopScenario) simulateSevcik(ctx context.Context, pool *engine.Pool, p *FlowShopSim, seed uint64, reps int, opts SimOpts) (any, int, error) {
	if opts.Antithetic {
		return nil, 0, errAntithetic("flowshop", "the sevcik variant's discrete laws are not inverse-CDF sampled")
	}
	jobs, err := spec.DiscreteJobs(p.Spec.Sevcik)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	var est stats.Running
	var order batch.Order
	src := opts.stream(seed)
	var round func(ctx context.Context, nr int) error
	if p.Policy == "wsept" {
		order = batch.WSEPTDiscrete(jobs)
		round = func(ctx context.Context, nr int) error {
			return batch.EstimateWSEPTDiscreteInto(ctx, pool, jobs, nr, src, &est)
		}
	} else {
		// The Sevcik rule is dynamic (preemptive, index recomputed at
		// milestones) — no static order to report.
		round = func(ctx context.Context, nr int) error {
			return batch.EstimateSevcikInto(ctx, pool, jobs, nr, src, &est)
		}
	}
	used, err := runReplications(ctx, opts, reps, round,
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &FlowShopResult{
		Policy:  p.Policy,
		Variant: "sevcik",
		Metric:  "weighted_flowtime",
		Order:   order,
		Mean:    est.Mean(),
		CI95:    est.CI95(),
	}, used, nil
}

func (flowshopScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string          `json:"spec_hash"`
		FlowShop *FlowShopResult `json:"flowshop"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding flowshop simulate response: %v", err)
	}
	if b.FlowShop == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no flowshop result")
	}
	if policy == "" {
		policy = b.FlowShop.Policy
	}
	return Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   b.FlowShop.Metric,
		Mean:     b.FlowShop.Mean,
		CI95:     b.FlowShop.CI95,
	}, nil
}
