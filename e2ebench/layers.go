package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"stochsched/internal/cluster"
	"stochsched/internal/des"
	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/rng"
	"stochsched/internal/scenario"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/internal/service"
	"stochsched/internal/spec"
	"stochsched/internal/sweep"
	"stochsched/pkg/api"
)

// The in-process half of the per-layer ladder: each layer's public
// functions timed on the workload's own bodies, with the daemon stopped.

// ladderInputs are the bodies the in-process measurements run on.
type ladderInputs struct {
	simulate [][]byte // the workload's simulate bodies (parse, hash)
	index    [][]byte // the workload's index bodies (parse, hash)
	sweeps   [][]byte // sweep bodies (expand)
	cold     [][]byte // cold simulate bodies (run, scaling)
	coldIdx  [][]byte // cold index bodies (compute)
}

// daemonLimits are stochschedd's default request budgets.
var daemonLimits = scenario.Limits{MaxReplications: 100000, MaxSimWork: 1e8}

// ladderBodies is how many cold and sweep bodies the ladder draws.
const ladderBodies = 48

// newLadderInputs gathers the ladder's bodies: the workload's own where it
// has that kind of body, the seed's cold and sweep streams otherwise.
// The streams are drawn from keys the timed phases never use.
func newLadderInputs(wl string, seed uint64, warm *warmSet) *ladderInputs {
	in := &ladderInputs{}
	for j := uint64(0); j < ladderBodies; j++ {
		o := coldOp(seed, ladderFrom+j)
		if o.kind == opIndex {
			in.coldIdx = append(in.coldIdx, o.body)
		} else {
			in.cold = append(in.cold, o.body)
		}
		in.sweeps = append(in.sweeps, sweepOp(seed, ladderFrom+j).body)
	}
	switch {
	case warm != nil:
		for _, o := range warm.singles() {
			if o.kind == opIndex {
				in.index = append(in.index, o.body)
			} else {
				in.simulate = append(in.simulate, o.body)
			}
		}
	case wl == "sweep":
		for _, b := range in.sweeps {
			req, err := sweep.DecodeRequest(b)
			if err == nil {
				in.simulate = append(in.simulate, req.Base)
			}
		}
		in.index = in.coldIdx
	default:
		in.simulate, in.index = in.cold, in.coldIdx
	}
	return in
}

// measure calls f until budget has passed and returns the time and heap
// allocations per call; f returns how many calls one invocation made.
func measure(budget time.Duration, f func() int) (nsPer, allocsPer float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < budget {
		n += f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// ladder runs every in-process layer measurement within about budget, at
// the daemons' GOMAXPROCS, and returns the per-layer metrics.
func ladder(ctx context.Context, in *ladderInputs, budget time.Duration, procs int) (map[string]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const steps = 12
	step := budget / steps
	m := map[string]float64{}

	sims, err := parseAll(in.simulate)
	if err != nil {
		return nil, err
	}
	idxs, err := parseAllIndex(in.index)
	if err != nil {
		return nil, err
	}
	ns, allocs := measure(step, func() int {
		for _, b := range in.simulate {
			scenario.ParseRequest(b, daemonLimits)
		}
		for _, b := range in.index {
			scenario.ParseIndexRequest(b)
		}
		return len(in.simulate) + len(in.index)
	})
	m["scenario.parse_us"], m["scenario.parse_allocs"] = ns/1e3, allocs

	// Hash is memoized on the request, so every call hashes a fresh copy.
	ns, _ = measure(step, func() int {
		for _, r := range sims {
			cp := *r
			cp.Hash()
		}
		for _, r := range idxs {
			cp := *r
			cp.Hash()
		}
		return len(sims) + len(idxs)
	})
	m["scenario.hash_us"] = ns / 1e3

	cold, err := parseAll(in.cold)
	if err != nil {
		return nil, err
	}
	runAll := func(pool *engine.Pool) func() int {
		return func() int {
			for _, r := range cold {
				if _, err := scenario.Run(ctx, r, pool); err != nil {
					panic(fmt.Sprintf("e2ebench: scenario.Run on a valid cold body: %v", err))
				}
			}
			return len(cold)
		}
	}
	ns1, allocs := measure(step, runAll(engine.NewPool(1)))
	m["scenario.run_us"], m["scenario.run_allocs"] = ns1/1e3, allocs
	nsN, _ := measure(step, runAll(engine.NewPool(procs)))
	m["engine.scaling_eff"] = ratio(ns1, float64(procs)*nsN)

	coldIdx, err := parseAllIndex(in.coldIdx)
	if err != nil {
		return nil, err
	}
	ns, _ = measure(step, func() int {
		for _, r := range coldIdx {
			if _, err := r.Compute(); err != nil {
				panic(fmt.Sprintf("e2ebench: Compute on a valid cold index body: %v", err))
			}
		}
		return len(coldIdx)
	})
	m["scenario.index_us"] = ns / 1e3

	ns, allocs = measure(step, desHold)
	m["des.event_ns"], m["des.allocs_per_event"] = ns, allocs

	reps, err := queueingReps()
	if err != nil {
		return nil, err
	}
	ns, _ = measure(step, func() int {
		for _, rep := range reps {
			rep()
		}
		return len(reps)
	})
	m["queueing.rep_us"] = ns / 1e3

	s := rng.New(1)
	var sink float64
	ns, _ = measure(step, func() int {
		for i := 0; i < 4096; i++ {
			sink += s.Float64()
		}
		return 4096
	})
	m["rng.draw_ns"] = ns
	laws, err := workloadLaws()
	if err != nil {
		return nil, err
	}
	ns, _ = measure(step, func() int {
		for i := 0; i < 1024; i++ {
			for _, l := range laws {
				sink += l.Sample(s)
			}
		}
		return 1024 * len(laws)
	})
	m["dist.draw_ns"] = ns
	_ = sink

	be := service.New(service.Config{})
	var sweepReqs []*sweep.Request
	for _, b := range in.sweeps {
		req, err := sweep.DecodeRequest(b)
		if err != nil {
			return nil, err
		}
		sweepReqs = append(sweepReqs, req)
	}
	ns, _ = measure(step, func() int {
		for _, req := range sweepReqs {
			if _, err := sweep.Expand(req, be, 0); err != nil {
				panic(fmt.Sprintf("e2ebench: Expand on a valid sweep: %v", err))
			}
		}
		return len(sweepReqs)
	})
	m["sweep.expand_us"] = ns / 1e3

	ring, err := cluster.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 0)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, r := range sims {
		keys = append(keys, "simulate:"+r.Hash())
	}
	for _, r := range idxs {
		keys = append(keys, r.Family()+":"+r.Hash())
	}
	ns, _ = measure(step, func() int {
		for _, k := range keys {
			ring.Owner(k)
		}
		return len(keys)
	})
	m["cluster.owner_ns"] = ns
	return m, nil
}

func parseAll(bodies [][]byte) ([]*scenario.Request, error) {
	var out []*scenario.Request
	for _, b := range bodies {
		r, err := scenario.ParseRequest(b, daemonLimits)
		if err != nil {
			return nil, fmt.Errorf("ladder: parsing simulate body: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}

func parseAllIndex(bodies [][]byte) ([]*scenario.IndexRequest, error) {
	var out []*scenario.IndexRequest
	for _, b := range bodies {
		r, err := scenario.ParseIndexRequest(b)
		if err != nil {
			return nil, fmt.Errorf("ladder: parsing index body: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}

// desHold runs a fixed synthetic schedule: 64 pending events, each of
// which reschedules itself at an exponential delay, for 2^14 events.
func desHold() int {
	const pending, events = 64, 1 << 14
	sim := des.New()
	s := rng.New(7)
	var fire func()
	fire = func() { sim.Schedule(s.Exp(1), fire) }
	for i := 0; i < pending; i++ {
		sim.Schedule(s.Exp(1), fire)
	}
	sim.RunUntil(events / pending)
	return int(sim.Fired())
}

// queueingReps returns one replication of each of the four queueing
// simulators on the canonical specs of their kinds.
func queueingReps() ([]func(), error) {
	parse := func(kind string) (any, error) {
		r, err := scenario.ParseRequest([]byte(scenariotest.SimulateBody(kind, 1)), daemonLimits)
		if err != nil {
			return nil, err
		}
		return r.Payload, nil
	}
	var reps []func()
	s := rng.New(11)
	p, err := parse("mg1")
	if err != nil {
		return nil, err
	}
	mg1 := p.(*api.MG1Sim)
	mq, err := spec.MG1Model(&mg1.Spec)
	if err != nil {
		return nil, err
	}
	reps = append(reps, func() { mq.Simulate(queueing.StaticPriority{Order: mq.CMuOrder()}, mg1.Horizon, mg1.Burnin, s) })

	if p, err = parse("mmm"); err != nil {
		return nil, err
	}
	mmm := p.(*api.MMmSim)
	mm, err := spec.MMmModel(&mmm.Spec)
	if err != nil {
		return nil, err
	}
	reps = append(reps, func() { mm.Simulate(mm.CMuOrder(), mmm.Horizon, mmm.Burnin, s) })

	if p, err = parse("jackson"); err != nil {
		return nil, err
	}
	jk := p.(*api.JacksonSim)
	nw, err := spec.NetworkModel(&jk.Spec)
	if err != nil {
		return nil, err
	}
	orders := make([][]int, nw.Stations)
	for i, c := range nw.Classes {
		orders[c.Station] = append(orders[c.Station], i)
	}
	pol := &queueing.NetworkPolicy{StationOrder: orders}
	reps = append(reps, func() { nw.Simulate(pol, jk.Horizon, jk.Burnin, 0, s) })

	if p, err = parse("polling"); err != nil {
		return nil, err
	}
	pl := p.(*api.PollingSim)
	pm, err := spec.PollingModel(&pl.Spec, queueing.Exhaustive)
	if err != nil {
		return nil, err
	}
	reps = append(reps, func() { pm.Simulate(pl.Horizon, pl.Burnin, s) })
	return reps, nil
}

// workloadLaws are the service-time laws the canonical bodies use.
func workloadLaws() ([]dist.Distribution, error) {
	specs := []api.Dist{
		{Kind: "exp", Rate: 2},
		{Kind: "uniform", Lo: 0.2, Hi: 1.2},
		{Kind: "det", Value: 0.7},
		{Kind: "erlang", K: 3, Rate: 1.5},
	}
	var out []dist.Distribution
	for i := range specs {
		l, err := spec.DistLaw(&specs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}
