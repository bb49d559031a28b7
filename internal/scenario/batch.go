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

func init() { Register(batchScenario{}) }

// The batch wire shapes live in the public contract; the aliases keep this
// package's names stable for internal consumers.
type (
	// BatchSim parameterizes a parallel-machine batch simulation: the
	// instance spec, the list policy computing the dispatch order
	// ("wsept", "sept", or "lept"), and the objective sweeps compare on
	// ("weighted_flowtime", the default; "flowtime"; or "makespan"). All
	// three objectives are always reported — the objective knob only
	// selects the comparison metric.
	BatchSim = api.BatchSim
	// BatchResult carries the replication estimates of one list policy on
	// identical parallel machines: the dispatch order and all three
	// realized objectives.
	BatchResult = api.BatchResult
)

// batchScenario estimates list-policy objectives on identical parallel
// machines via internal/batch; its Indexer capability computes the
// WSEPT/SEPT/LEPT orders with Smith ratios.
type batchScenario struct{}

func (batchScenario) Kind() string { return "batch" }

// batchObjective defaults the payload's objective knob.
func batchObjective(p *BatchSim) string {
	if p.Objective == "" {
		return "weighted_flowtime"
	}
	return p.Objective
}

func (batchScenario) CheckPayload(any) error { return nil }

func (batchScenario) ReplicationWork(payload any) float64 {
	// One replication dispatches every job once.
	return float64(len(payload.(*BatchSim).Spec.Jobs))
}

func (s batchScenario) Validate(payload any) error {
	p := payload.(*BatchSim)
	if err := spec.ValidateBatch(&p.Spec); err != nil {
		return err
	}
	if err := s.checkPolicy(p.Policy); err != nil {
		return err
	}
	return checkBatchObjective(batchObjective(p))
}

func (batchScenario) Policies(any) []string { return []string{"wsept", "sept", "lept"} }

func (batchScenario) PolicyPath() string { return "batch.policy" }

func (batchScenario) checkPolicy(policy string) error {
	switch policy {
	case "wsept", "sept", "lept":
		return nil
	}
	return fmt.Errorf("unknown batch policy %q (want wsept, sept, or lept)", policy)
}

func checkBatchObjective(objective string) error {
	switch objective {
	case "weighted_flowtime", "flowtime", "makespan":
		return nil
	}
	return fmt.Errorf("unknown batch objective %q (want weighted_flowtime, flowtime, or makespan)", objective)
}

func (s batchScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*BatchSim)
	if err := s.checkPolicy(p.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	objective := batchObjective(p)
	if err := checkBatchObjective(objective); err != nil {
		return nil, 0, BadSpec{err}
	}
	in, err := spec.BatchInstance(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j, job := range in.Jobs {
			if !dist.Invertible(job.Dist) {
				return nil, 0, errAntithetic("batch", fmt.Sprintf("job %d processing law %v is not inverse-CDF sampled", j, job.Dist))
			}
		}
	}
	var order batch.Order
	switch p.Policy {
	case "wsept":
		order = batch.WSEPT(in.Jobs)
	case "sept":
		order = batch.SEPT(in.Jobs)
	case "lept":
		order = batch.LEPT(in.Jobs)
	}
	var est batch.ParallelEstimate
	// The objective knob selects the comparison metric, so it also drives
	// the sequential stopping rule.
	primary := &est.WeightedFlowtime
	switch objective {
	case "makespan":
		primary = &est.Makespan
	case "flowtime":
		primary = &est.Flowtime
	}
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return batch.EstimateParallelInto(ctx, pool, in, order, nr, src, &est)
		},
		func() *stats.Running { return primary })
	if err != nil {
		return nil, 0, err
	}
	return &BatchResult{
		Policy:               p.Policy,
		Objective:            objective,
		Order:                order,
		MakespanMean:         est.Makespan.Mean(),
		MakespanCI95:         est.Makespan.CI95(),
		FlowtimeMean:         est.Flowtime.Mean(),
		FlowtimeCI95:         est.Flowtime.CI95(),
		WeightedFlowtimeMean: est.WeightedFlowtime.Mean(),
		WeightedFlowtimeCI95: est.WeightedFlowtime.CI95(),
	}, used, nil
}

func (batchScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string       `json:"spec_hash"`
		Batch    *BatchResult `json:"batch"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding batch simulate response: %v", err)
	}
	if b.Batch == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no batch result")
	}
	if policy == "" {
		policy = b.Batch.Policy
	}
	out := Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   b.Batch.Objective,
	}
	switch b.Batch.Objective {
	case "makespan":
		out.Mean, out.CI95 = b.Batch.MakespanMean, b.Batch.MakespanCI95
	case "flowtime":
		out.Mean, out.CI95 = b.Batch.FlowtimeMean, b.Batch.FlowtimeCI95
	default:
		out.Metric = "weighted_flowtime"
		out.Mean, out.CI95 = b.Batch.WeightedFlowtimeMean, b.Batch.WeightedFlowtimeCI95
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: WSEPT/SEPT/LEPT orders with Smith ratios.

func (batchScenario) IndexFamily() string { return "priority" }

// IndexHash hashes the {"kind":"batch","batch":…} priority envelope —
// exactly the body of the retired /v1/priority route, so goldens and cache
// keys are preserved.
func (batchScenario) IndexHash(payload any) string {
	return api.Hash(&api.PriorityRequest{Kind: "batch", Batch: payload.(*api.Batch)})
}

func (s batchScenario) ComputeIndex(payload any, hash string) (any, error) {
	b := payload.(*api.Batch)
	in, err := spec.BatchInstance(b)
	if err != nil {
		return nil, BadSpec{err}
	}
	wsept := batch.WSEPT(in.Jobs)
	ratios := make([]float64, len(in.Jobs))
	for i, j := range in.Jobs {
		ratios[i] = j.SmithRatio()
	}
	resp := &api.PriorityResponse{
		SpecHash: hash,
		Rule:     "wsept",
		Order:    wsept,
		Indices:  ratios,
		SEPT:     batch.SEPT(in.Jobs),
		LEPT:     batch.LEPT(in.Jobs),
	}
	if in.Machines == 1 {
		v := batch.ExactWeightedFlowtime(in.Jobs, wsept)
		resp.ExactWeightedFlowtime = &v
	}
	return resp, nil
}
