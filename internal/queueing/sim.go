package queueing

import (
	"context"
	"fmt"
	"math"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// Discipline selects which waiting job to serve next at a service-start
// epoch. waiting holds jobs in arrival order; the discipline returns an
// index into it. A discipline must return a valid index when waiting is
// nonempty.
type Discipline interface {
	Next(waiting []job) int
	Name() string
}

// FIFO serves in arrival order.
type FIFO struct{}

// Next implements Discipline.
func (FIFO) Next([]job) int { return 0 }

// Name implements Discipline.
func (FIFO) Name() string { return "FIFO" }

// StaticPriority serves the oldest job of the highest-priority nonempty
// class. Order lists class indices, highest priority first.
type StaticPriority struct{ Order []int }

// Next implements Discipline.
func (p StaticPriority) Next(waiting []job) int {
	rank := make(map[int]int, len(p.Order))
	for r, cls := range p.Order {
		rank[cls] = r
	}
	best, bestRank := -1, math.MaxInt32
	for i, jb := range waiting {
		if r := rank[jb.class]; r < bestRank {
			best, bestRank = i, r
		}
	}
	return best
}

// Name implements Discipline.
func (p StaticPriority) Name() string { return fmt.Sprintf("priority%v", p.Order) }

// RandomMix randomizes, at every service-start epoch, among disciplines
// with the given weights — tracing interior points of the performance
// polytope (experiment E18).
type RandomMix struct {
	Disciplines []Discipline
	Weights     []float64
	// Stream supplies the mixing draws for direct Simulate calls.
	// Replicate ignores it: each replication is rebound to its own
	// substream via WithStream, so replications neither race on a shared
	// stream nor depend on scheduling order.
	Stream *rng.Stream
}

// Next implements Discipline.
func (r RandomMix) Next(waiting []job) int {
	return r.Disciplines[r.Stream.Categorical(r.Weights)].Next(waiting)
}

// Name implements Discipline.
func (r RandomMix) Name() string { return "random-mix" }

// WithStream implements StreamDiscipline: replications each get an
// independent copy drawing from their own substream. Nested disciplines
// that carry streams of their own are rebound recursively, so no stream is
// shared across replications anywhere in the discipline tree.
func (r RandomMix) WithStream(s *rng.Stream) Discipline {
	inner := make([]Discipline, len(r.Disciplines))
	for i, d := range r.Disciplines {
		if sd, ok := d.(StreamDiscipline); ok {
			inner[i] = sd.WithStream(s.Split())
		} else {
			inner[i] = d
		}
	}
	return RandomMix{Disciplines: inner, Weights: r.Weights, Stream: s}
}

// StreamDiscipline is implemented by disciplines that consume randomness.
// Replicate rebinds such disciplines to a per-replication substream so
// concurrent replications neither race on a shared stream nor depend on
// scheduling order for their draws.
type StreamDiscipline interface {
	Discipline
	WithStream(s *rng.Stream) Discipline
}

// SimResult carries steady-state estimates from one replication.
type SimResult struct {
	L        []float64 // time-average number in system, per class
	Wq       []float64 // mean delay before service, per class
	CostRate float64   // Σ_j c_j L_j
	Served   []int64   // completed jobs per class
}

// Simulate runs the multiclass M/G/1 under the given nonpreemptive
// discipline on [0, horizon], collecting statistics on [burnin, horizon].
func (m *MG1) Simulate(d Discipline, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	return m.simulate(context.Background(), d, horizon, burnin, s)
}

func (m *MG1) simulate(ctx context.Context, d Discipline, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return nil, err
	}
	f := newFrame(ctx, m.Classes, burnin, s)
	f.waits = true
	st := f.stations(1, 1)
	st.rank, st.disc = disciplineRanks(d, len(m.Classes)), d
	if err := f.run(horizon, nil); err != nil {
		return nil, err
	}
	return f.result(horizon), nil
}

// disciplineRanks returns the class rank table a discipline serves by —
// every class equal under FIFO, StaticPriority's order ranked once — or
// nil for disciplines the dispatcher must ask at every service start.
func disciplineRanks(d Discipline, n int) []int {
	switch d := d.(type) {
	case FIFO:
		return make([]int, n)
	case StaticPriority:
		return ranks(d.Order, n)
	}
	return nil
}

// Replicate runs reps independent replications and returns per-class L and
// Wq means with the cost-rate statistics.
type ReplicatedResult struct {
	L        []stats.Running
	Wq       []stats.Running
	CostRate stats.Running
}

// Replicate aggregates independent replications of Simulate on the pool.
// Each replication draws from its own substream (including the discipline,
// when it consumes randomness — see StreamDiscipline), and the per-class
// statistics are folded in replication order, so the result is
// byte-identical for a given seed at any parallelism level.
func (m *MG1) Replicate(ctx context.Context, p *engine.Pool, d Discipline, horizon, burnin float64, reps int, s *rng.Stream) (*ReplicatedResult, error) {
	n := len(m.Classes)
	out := &ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	if err := m.ReplicateInto(ctx, p, d, horizon, burnin, reps, s, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReplicateInto folds reps further replications into out, drawing
// substreams off s in order: repeated calls sharing s and out accumulate
// exactly as one Replicate call with the summed count would — the
// property the adaptive (target-precision) rounds are built on.
func (m *MG1) ReplicateInto(ctx context.Context, p *engine.Pool, d Discipline, horizon, burnin float64, reps int, s *rng.Stream, out *ReplicatedResult) error {
	return replicate(ctx, p, reps, s, out.L, out.Wq, &out.CostRate,
		func(ctx context.Context, sub *rng.Stream) (*SimResult, error) {
			rep := d
			if sd, ok := d.(StreamDiscipline); ok {
				rep = sd.WithStream(sub.Split())
			}
			return m.simulate(ctx, rep, horizon, burnin, sub)
		})
}

// SimulatePreemptive runs a preemptive-resume static priority M/M/1
// (exponential services required: preempted work is resampled, which is
// distribution-preserving only under memorylessness). An arriving job of
// strictly higher priority interrupts the job in service.
func (m *MG1) SimulatePreemptive(order []int, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for j, c := range m.Classes {
		if _, ok := c.Service.(dist.Exponential); !ok {
			return nil, fmt.Errorf("queueing: preemptive simulator requires exponential services (class %d is %v)", j, c.Service)
		}
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return nil, err
	}
	f := newFrame(context.Background(), m.Classes, burnin, s)
	st := f.stations(1, 1)
	st.rank, st.preempt = ranks(order, len(m.Classes)), true
	if err := f.run(horizon, nil); err != nil {
		return nil, err
	}
	return f.result(horizon), nil
}
