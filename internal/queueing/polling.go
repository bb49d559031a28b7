package queueing

import (
	"context"
	"fmt"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// Polling systems (Levy–Sidi 1990): one server cycles through queues,
// incurring a switchover (setup) time when moving between them. Classic
// service regimes:
//
//   - Exhaustive: serve the queue until it empties, then move on.
//   - Gated: serve only the jobs present at the server's arrival ("gate"),
//     then move on.
//   - Limited(k): serve at most k jobs per visit.
//
// Changeover costs are the survey's motivation for these models (and for
// Reiman–Wein's two-class setup analysis): the regimes trade switching
// overhead against delay — experiment E22.

// PollingRegime selects the per-visit service rule.
type PollingRegime int

const (
	// Exhaustive serves until the visited queue is empty.
	Exhaustive PollingRegime = iota
	// Gated serves exactly the jobs present on the server's arrival.
	Gated
	// Limited1 serves at most one job per visit.
	Limited1
)

func (r PollingRegime) String() string {
	switch r {
	case Exhaustive:
		return "exhaustive"
	case Gated:
		return "gated"
	case Limited1:
		return "1-limited"
	default:
		return fmt.Sprintf("PollingRegime(%d)", int(r))
	}
}

// Polling is a cyclic polling system.
type Polling struct {
	Queues []Class
	Switch dist.Distribution // switchover time between consecutive queues
	Regime PollingRegime
}

// Validate checks rates and overall stability (ρ < 1 is necessary; with
// switchover times the true region is smaller for limited regimes, so
// simulations should watch their own divergence).
func (p *Polling) Validate() error {
	if len(p.Queues) < 2 {
		return fmt.Errorf("queueing: polling needs at least 2 queues")
	}
	if p.Switch == nil || p.Switch.Mean() <= 0 {
		// Zero switchover would make an idle server cycle in zero time,
		// which the event loop cannot advance past.
		return fmt.Errorf("queueing: polling needs a positive-mean switchover law")
	}
	rho := 0.0
	for i, c := range p.Queues {
		if c.ArrivalRate < 0 || c.Service == nil || c.Service.Mean() <= 0 {
			return fmt.Errorf("queueing: polling queue %d invalid", i)
		}
		rho += c.ArrivalRate * c.Service.Mean()
	}
	if rho >= 1 {
		return fmt.Errorf("queueing: polling load %v ≥ 1", rho)
	}
	return nil
}

// Simulate runs the polling system and returns per-queue mean delay and
// counts over [burnin, horizon].
func (p *Polling) Simulate(horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	return p.simulate(context.Background(), horizon, burnin, s)
}

// simulate runs one replication. The switchover stream is split off s
// first, then the class streams; arrivals only join their queue, and the
// server's visit cycle, started at time 0, does all the serving.
func (p *Polling) simulate(ctx context.Context, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return nil, err
	}
	n := len(p.Queues)
	swStream := s.Split()
	f := newFrame(ctx, p.Queues, burnin, s)
	f.waits = true
	queues := make([][]job, n)
	f.enter = func(j int) {
		queues[j] = append(queues[j], job{class: j, arrival: f.sim.Now()})
	}
	at := 0   // queue the server is at
	gate := 0 // jobs left to serve this visit (gated, limited)

	var visit func(first bool)
	completion := func() {
		f.check()
		f.depart(at)
		gate--
		visit(false)
	}
	switchover := func() {
		f.check()
		at = (at + 1) % n
		visit(true)
	}
	visit = func(first bool) {
		if first {
			switch p.Regime {
			case Gated:
				gate = len(queues[at])
			case Limited1:
				gate = 1
			}
		}
		if len(queues[at]) == 0 || (p.Regime != Exhaustive && gate == 0) {
			f.sim.Schedule(p.Switch.Sample(swStream), switchover)
			return
		}
		jb := queues[at][0]
		queues[at] = queues[at][1:]
		f.startService(jb)
		f.sim.Schedule(p.Queues[at].Service.Sample(f.svc[at]), completion)
	}
	if err := f.run(horizon, func() { f.sim.At(0, func() { visit(true) }) }); err != nil {
		return nil, err
	}
	return f.result(horizon), nil
}

// Replicate aggregates independent replications of Simulate on the pool,
// reusing ReplicatedResult (the polling per-replication result has the
// same shape as the M/G/1 one).
func (p *Polling) Replicate(ctx context.Context, pool *engine.Pool, horizon, burnin float64, reps int, s *rng.Stream) (*ReplicatedResult, error) {
	n := len(p.Queues)
	out := &ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	if err := p.ReplicateInto(ctx, pool, horizon, burnin, reps, s, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReplicateInto folds reps further replications into out, continuing s's
// substream sequence.
func (p *Polling) ReplicateInto(ctx context.Context, pool *engine.Pool, horizon, burnin float64, reps int, s *rng.Stream, out *ReplicatedResult) error {
	return replicate(ctx, pool, reps, s, out.L, out.Wq, &out.CostRate,
		func(ctx context.Context, sub *rng.Stream) (*SimResult, error) {
			return p.simulate(ctx, horizon, burnin, sub)
		})
}
