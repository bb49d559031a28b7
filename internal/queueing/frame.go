package queueing

import (
	"context"
	"fmt"
	"math"

	"stochsched/internal/des"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// The one event loop behind every queueing simulator. A frame owns what the
// model families share: the des.Simulator, the per-class arrival and
// service substreams, the Poisson arrival processes, per-class occupancy
// tracking (a time average from burn-in, or discounted accrual), the
// burn-in snapshot and result assembly. A server rule decides what happens
// to a job between its arrival and its departure. Two rules plug in: the
// priority-station dispatcher below (M/G/1, preemptive M/M/1, M/M/m,
// Klimov feedback and multiclass networks) and polling's visit cycle
// (polling.go).
//
// Bodies are byte-identical only while the frame keeps its order: the
// model splits any routing or switchover stream off s before newFrame
// splits the class streams (arrival, then service, class by class); an
// arrival counts, observes, enters the server rule (which queues and
// dispatches) and only then schedules the next arrival; and the burn-in
// snapshot is scheduled after the initial arrivals, before the rule's own
// start events.

// checkEvery is the number of arrivals and completions between two checks
// of the replication's context: a cancelled replication stops within a
// few thousand events, and between checks an event pays one increment.
const checkEvery = 4096

// job is one customer in the system.
type job struct {
	class   int
	arrival float64
}

// frame is the shared event-loop state of one replication.
type frame struct {
	ctx     context.Context
	sim     *des.Simulator
	classes []Class
	arr     []*rng.Stream
	svc     []*rng.Stream
	burnin  float64
	// enter is the server rule: it takes a class-j job that has just been
	// counted into the system (an external arrival or a routed job).
	enter func(j int)

	count  []int
	lTrack []stats.TimeWeighted
	served []int64
	// waits turns on the per-class mean delay before service (Wq) for the
	// simulators that report it.
	waits bool
	wqSum []float64
	wqN   []int64

	// discount > 0 replaces the time averages by the total discounted
	// holding cost ∫ e^{−rt} Σ_j c_j n_j(t) dt, accrued in total.
	discount float64
	lastT    float64
	costRate float64
	total    float64

	events int
	err    error
}

// newFrame splits the class substreams off s — arrival then service, class
// by class — and returns a frame with no server rule yet.
func newFrame(ctx context.Context, classes []Class, burnin float64, s *rng.Stream) *frame {
	n := len(classes)
	f := &frame{
		ctx:     ctx,
		sim:     des.New(),
		classes: classes,
		arr:     make([]*rng.Stream, n),
		svc:     make([]*rng.Stream, n),
		burnin:  burnin,
		count:   make([]int, n),
		lTrack:  make([]stats.TimeWeighted, n),
		served:  make([]int64, n),
		wqSum:   make([]float64, n),
		wqN:     make([]int64, n),
	}
	for j := range classes {
		f.arr[j] = s.Split()
		f.svc[j] = s.Split()
	}
	return f
}

// check halts the run once the context is done, looking every checkEvery
// calls. Every arrival and completion handler calls it first.
func (f *frame) check() {
	f.events++
	if f.events%checkEvery == 0 {
		if err := f.ctx.Err(); err != nil {
			f.err = err
			f.sim.Halt()
		}
	}
}

// add changes the class-j count by delta and records it: an observation of
// the time average from burn-in on, or discounted accrual.
func (f *frame) add(j, delta int) {
	if f.discount > 0 {
		f.accrue()
		f.count[j] += delta
		f.costRate += float64(delta) * f.classes[j].HoldCost
		return
	}
	f.count[j] += delta
	if now := f.sim.Now(); now >= f.burnin {
		f.lTrack[j].Observe(now, float64(f.count[j]))
	}
}

// accrue integrates e^{−rt}·costRate over [lastT, now]; the integral is
// exact because the counts are piecewise constant.
func (f *frame) accrue() {
	now := f.sim.Now()
	if now > f.lastT && f.costRate != 0 {
		r := f.discount
		f.total += f.costRate * (math.Exp(-r*f.lastT) - math.Exp(-r*now)) / r
	}
	f.lastT = now
}

// depart removes a class-j job that has completed service.
func (f *frame) depart(j int) {
	f.add(j, -1)
	if f.sim.Now() >= f.burnin {
		f.served[j]++
	}
}

// startService records the delay of a job entering service.
func (f *frame) startService(jb job) {
	if now := f.sim.Now(); f.waits && now >= f.burnin {
		f.wqSum[jb.class] += now - jb.arrival
		f.wqN[jb.class]++
	}
}

// run schedules the Poisson arrivals, the burn-in snapshot and then the
// rule's own start events (start may be nil), and runs to the horizon. It
// returns the context's error when the run was cancelled.
func (f *frame) run(horizon float64, start func()) error {
	for j, c := range f.classes {
		if c.ArrivalRate <= 0 {
			continue
		}
		var arrive func()
		arrive = func() {
			f.check()
			f.add(j, 1)
			f.enter(j)
			f.sim.Schedule(f.arr[j].Exp(c.ArrivalRate), arrive)
		}
		f.sim.Schedule(f.arr[j].Exp(c.ArrivalRate), arrive)
	}
	if f.discount == 0 {
		// Snapshot the state at burnin so time averages start correctly.
		f.sim.At(f.burnin, func() {
			for j, n := range f.count {
				f.lTrack[j].Observe(f.burnin, float64(n))
			}
		})
	}
	if start != nil {
		start()
	}
	f.sim.RunUntil(horizon)
	if f.discount > 0 {
		f.accrue()
	}
	return f.err
}

// result assembles the per-replication estimates over [burnin, horizon].
func (f *frame) result(horizon float64) *SimResult {
	n := len(f.classes)
	res := &SimResult{L: make([]float64, n), Wq: make([]float64, n), Served: f.served}
	for j, c := range f.classes {
		res.L[j] = f.lTrack[j].Average(horizon)
		if f.wqN[j] > 0 {
			res.Wq[j] = f.wqSum[j] / float64(f.wqN[j])
		}
		res.CostRate += c.HoldCost * res.L[j]
	}
	return res
}

// stations is the priority-station server rule: stations × identical
// servers, each serving its waiting job of lowest class rank (oldest first
// among equals), or the one a Discipline picks; optionally preemptive; and
// routing each completed job to a successor class or out of the system.
type stations struct {
	*frame
	// at maps class → station; nil puts every class at station 0.
	at []int
	// rank maps class → priority rank, lower served first; nil asks disc
	// at every service start.
	rank []int
	disc Discipline
	// route returns the class a completed class-cls job becomes, or -1
	// when it leaves; nil means every job leaves.
	route func(cls int) int
	// preempt makes a strictly higher-ranked arrival interrupt the job in
	// service (one station with one server; memoryless services make
	// resampling on resumption exact).
	preempt bool

	queue [][]job
	free  []int
	// slots is the in-service table: a completion event carries the index
	// of its job's slot, and freed slots are reused through spare.
	slots []inService
	spare []int
	// done is complete bound once, the call every completion event runs.
	done func(slot int)
	// current is the slot of the job in service under preempt, or -1;
	// running is its completion event.
	current int
	running des.Handle
}

// inService is a job in service and the station serving it.
type inService struct {
	st int
	jb job
}

// stations installs the priority-station dispatcher as f's server rule.
func (f *frame) stations(count, servers int) *stations {
	d := &stations{frame: f, queue: make([][]job, count), free: make([]int, count), current: -1}
	for st := range d.free {
		d.free[st] = servers
	}
	d.done = d.complete
	f.enter = d.enter
	return d
}

func (d *stations) station(cls int) int {
	if d.at == nil {
		return 0
	}
	return d.at[cls]
}

func (d *stations) enter(cls int) {
	st := d.station(cls)
	d.queue[st] = append(d.queue[st], job{class: cls, arrival: d.sim.Now()})
	if d.current >= 0 && d.rank[cls] < d.rank[d.slots[d.current].jb.class] {
		// Preempt: return the job in service to the queue.
		d.running.Cancel()
		d.queue[st] = append(d.queue[st], d.slots[d.current].jb)
		d.release(d.current)
		d.free[st]++
	}
	d.dispatch(st)
}

// pick returns the index in q of the next job to serve.
func (d *stations) pick(q []job) int {
	if d.rank == nil {
		return d.disc.Next(q)
	}
	best, bestRank := 0, d.rank[q[0].class]
	for i := 1; i < len(q); i++ {
		if r := d.rank[q[i].class]; r < bestRank {
			best, bestRank = i, r
		}
	}
	return best
}

func (d *stations) dispatch(st int) {
	for d.free[st] > 0 && len(d.queue[st]) > 0 {
		q := d.queue[st]
		i := d.pick(q)
		jb := q[i]
		d.queue[st] = append(q[:i], q[i+1:]...)
		d.free[st]--
		d.startService(jb)
		dur := d.classes[jb.class].Service.Sample(d.svc[jb.class])
		slot := d.hold(st, jb)
		h := d.sim.ScheduleCall(dur, d.done, slot)
		if d.preempt {
			d.current, d.running = slot, h
		}
	}
}

// hold puts jb, served at st, into a free slot and returns its index.
func (d *stations) hold(st int, jb job) int {
	sv := inService{st: st, jb: jb}
	if n := len(d.spare); n > 0 {
		slot := d.spare[n-1]
		d.spare = d.spare[:n-1]
		d.slots[slot] = sv
		return slot
	}
	d.slots = append(d.slots, sv)
	return len(d.slots) - 1
}

// release frees a slot; it is no longer the one in service.
func (d *stations) release(slot int) {
	d.spare = append(d.spare, slot)
	d.current = -1
}

func (d *stations) complete(slot int) {
	sv := d.slots[slot]
	d.release(slot)
	d.check()
	d.free[sv.st]++
	d.depart(sv.jb.class)
	if d.route != nil {
		if next := d.route(sv.jb.class); next >= 0 {
			d.add(next, 1)
			d.enter(next)
		}
	}
	d.dispatch(sv.st)
}

// ranks maps a priority order (class indices, highest first) to a class →
// rank table. Classes the order omits rank 0 and entries outside [0, n)
// are ignored, as in StaticPriority.
func ranks(order []int, n int) []int {
	rank := make([]int, n)
	for r, cls := range order {
		if cls >= 0 && cls < n {
			rank[cls] = r
		}
	}
	return rank
}

// checkWindow validates a statistics window [burnin, horizon].
func checkWindow(horizon, burnin float64) error {
	if horizon <= burnin || burnin < 0 {
		return fmt.Errorf("queueing: need 0 <= burnin < horizon")
	}
	return nil
}

// replicate runs reps replications of one on the pool, each on its own
// substream of s, and folds them in replication order into per-class L
// (and Wq when wq is non-nil) and the cost rate. The result is
// byte-identical for a given seed at any parallelism level, and repeated
// calls sharing s and the accumulators equal one call with the summed
// count — the property the adaptive (target-precision) rounds are built
// on.
func replicate(ctx context.Context, p *engine.Pool, reps int, s *rng.Stream, l, wq []stats.Running, cost *stats.Running,
	one func(ctx context.Context, sub *rng.Stream) (*SimResult, error)) error {
	return engine.ReplicateReduce(ctx, p, reps, s,
		func(ctx context.Context, _ int, sub *rng.Stream) (*SimResult, error) { return one(ctx, sub) },
		func(_ int, res *SimResult) error {
			for j := range l {
				l[j].Add(res.L[j])
			}
			for j := range wq {
				wq[j].Add(res.Wq[j])
			}
			cost.Add(res.CostRate)
			return nil
		})
}
