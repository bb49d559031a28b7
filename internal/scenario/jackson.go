package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/spec"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(jacksonScenario{}) }

// The jackson wire shapes live in the public contract; the aliases keep
// this package's names stable for internal consumers.
type (
	// JacksonSim parameterizes an open-network simulation: the network
	// spec, the per-station priority rule, and the horizon.
	JacksonSim = api.JacksonSim
	// JacksonResult carries replication means for the network simulation.
	JacksonResult = api.JacksonResult
)

// jacksonScenario simulates open multiclass queueing networks (one server
// per station, deterministic or probabilistic routing) under per-station
// static priority rules; its Indexer capability computes the product-form
// (Jackson) steady state where it applies — exponential services, one
// shared rate per station, every station stable. The simulate side has no
// stability requirement: reproducing instability under nominal loads < 1
// (the Lu–Kumar network) is part of the kind's job.
type jacksonScenario struct{}

func (jacksonScenario) Kind() string { return "jackson" }

func (jacksonScenario) CheckPayload(payload any) error {
	p := payload.(*JacksonSim)
	return checkWindow(p.Burnin, p.Horizon)
}

func (jacksonScenario) ReplicationWork(payload any) float64 {
	p := payload.(*JacksonSim)
	nw, err := spec.NetworkModel(&p.Spec)
	if err != nil {
		return 0
	}
	lam, err := nw.EffectiveRates()
	if err != nil {
		return 0
	}
	return eventWork(p.Horizon, lam, 0)
}

func (s jacksonScenario) Validate(payload any) error {
	p := payload.(*JacksonSim)
	if err := spec.ValidateNetwork(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(p.Policy)
}

func (jacksonScenario) Policies(any) []string { return []string{"cmu", "fcfs", "lbfs"} }

func (jacksonScenario) PolicyPath() string { return "jackson.policy" }

func (jacksonScenario) checkPolicy(policy string) error {
	switch policy {
	case "cmu", "fcfs", "lbfs":
		return nil
	}
	return fmt.Errorf("unknown jackson policy %q (want cmu, fcfs, or lbfs)", policy)
}

// networkPolicy derives the per-station priority orders of the named rule:
// "fcfs" serves classes in spec order, "lbfs" in reverse spec order (the
// last-buffer-first direction that destabilizes the Lu–Kumar network),
// and "cmu" by descending hold-cost × service-rate.
func networkPolicy(nw *queueing.Network, rule string) *queueing.NetworkPolicy {
	orders := make([][]int, nw.Stations)
	for i, c := range nw.Classes {
		orders[c.Station] = append(orders[c.Station], i)
	}
	for st := range orders {
		o := orders[st]
		switch rule {
		case "lbfs":
			for i, j := 0, len(o)-1; i < j; i, j = i+1, j-1 {
				o[i], o[j] = o[j], o[i]
			}
		case "cmu":
			key := func(cls int) float64 {
				c := &nw.Classes[cls]
				return c.HoldCost / c.Service.Mean()
			}
			sort.SliceStable(o, func(a, b int) bool { return key(o[a]) > key(o[b]) })
		}
	}
	return &queueing.NetworkPolicy{StationOrder: orders}
}

func (s jacksonScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*JacksonSim)
	if err := s.checkPolicy(p.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	nw, err := spec.NetworkModel(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j, c := range nw.Classes {
			if len(c.Routes) > 0 {
				return nil, 0, errAntithetic("jackson", fmt.Sprintf("class %d uses probabilistic routing", j))
			}
			if !dist.Invertible(c.Service) {
				return nil, 0, errAntithetic("jackson", fmt.Sprintf("class %d service law %v is not inverse-CDF sampled", j, c.Service))
			}
		}
	}
	n := len(nw.Classes)
	rep := &queueing.ReplicatedNetworkResult{L: make([]stats.Running, n)}
	src := opts.stream(seed)
	pol := networkPolicy(nw, p.Policy)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return nw.ReplicateInto(ctx, pool, pol, p.Horizon, p.Burnin, nr, src, rep)
		},
		func() *stats.Running { return &rep.CostRate })
	if err != nil {
		return nil, 0, err
	}
	res := &JacksonResult{
		Policy:       p.Policy,
		L:            make([]float64, n),
		CostRateMean: rep.CostRate.Mean(),
		CostRateCI95: rep.CostRate.CI95(),
	}
	for j := 0; j < n; j++ {
		res.L[j] = rep.L[j].Mean()
	}
	return res, used, nil
}

func (jacksonScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string         `json:"spec_hash"`
		Jackson  *JacksonResult `json:"jackson"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding jackson simulate response: %v", err)
	}
	if b.Jackson == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no jackson result")
	}
	if policy == "" {
		policy = b.Jackson.Policy
	}
	return Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   "cost_rate",
		Mean:     b.Jackson.CostRateMean,
		CI95:     b.Jackson.CostRateCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: the product-form (Jackson) steady state. Applies only
// when every class is exponential, classes at one station share one rate,
// and every station is stable — anything else is a BadSpec, not an
// approximation.

func (jacksonScenario) IndexFamily() string { return "jackson" }

func (jacksonScenario) IndexHash(payload any) string {
	return api.Hash(&api.IndexRequest{Kind: "jackson", Jackson: payload.(*api.Network)})
}

func (jacksonScenario) ComputeIndex(payload any, hash string) (any, error) {
	nw, err := spec.NetworkModel(payload.(*api.Network))
	if err != nil {
		return nil, BadSpec{err}
	}
	rate := make([]float64, nw.Stations)
	for i, c := range nw.Classes {
		e, ok := c.Service.(dist.Exponential)
		if !ok {
			return nil, BadSpec{fmt.Errorf("product form needs exponential services, class %d has %T", i, c.Service)}
		}
		switch {
		case rate[c.Station] == 0:
			rate[c.Station] = e.Rate
		case math.Abs(rate[c.Station]-e.Rate) > 1e-12*rate[c.Station]:
			return nil, BadSpec{fmt.Errorf("product form needs one service rate per station; station %d mixes %v and %v", c.Station, rate[c.Station], e.Rate)}
		}
	}
	lam, err := nw.EffectiveRates()
	if err != nil {
		return nil, BadSpec{err}
	}
	loads := nw.StationLoads()
	for st, rho := range loads {
		if rho >= 1 {
			return nil, BadSpec{fmt.Errorf("product form needs every station stable; station %d has load %v", st, rho)}
		}
	}
	stationLam := make([]float64, nw.Stations)
	for i, c := range nw.Classes {
		stationLam[c.Station] += lam[i]
	}
	stationL := make([]float64, nw.Stations)
	for st := range stationL {
		if loads[st] > 0 {
			stationL[st] = loads[st] / (1 - loads[st])
		}
	}
	// Per-class split of the station queue length by arrival-rate share —
	// exact for the station totals; the split matches any work-conserving
	// symmetric discipline.
	l := make([]float64, len(nw.Classes))
	cost := 0.0
	for i, c := range nw.Classes {
		if stationLam[c.Station] > 0 {
			l[i] = lam[i] / stationLam[c.Station] * stationL[c.Station]
		}
		cost += c.HoldCost * l[i]
	}
	return &api.JacksonResponse{
		SpecHash:     hash,
		Stations:     nw.Stations,
		Lambda:       lam,
		StationLoads: loads,
		StationL:     stationL,
		L:            l,
		CostRate:     cost,
	}, nil
}
